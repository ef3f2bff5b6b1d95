package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"
)

func ev(i int, rule string, v Verdict) Event {
	return Event{
		Slot:           time.Date(2025, 6, 1, i%24, 0, 0, 0, time.UTC),
		Window:         i,
		Rule:           rule,
		Owner:          "alice",
		Verdict:        v,
		Trace:          fmt.Sprintf("trace-%d", i%2),
		EpRemainingKWh: 1.5,
		EnergyKWh:      0.2,
		FCEDelta:       0.1,
		FlipIter:       i,
	}
}

func TestVerdictRoundTrip(t *testing.T) {
	for _, v := range []Verdict{VerdictExecuted, VerdictDropped} {
		got, err := ParseVerdict(v.String())
		if err != nil || got != v {
			t.Fatalf("ParseVerdict(%q) = %v, %v", v.String(), got, err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Verdict
		if err := json.Unmarshal(b, &back); err != nil || back != v {
			t.Fatalf("unmarshal %s = %v, %v", b, back, err)
		}
	}
	if _, err := ParseVerdict("bogus"); err == nil {
		t.Fatal("ParseVerdict accepted bogus")
	}
	var v Verdict
	if err := v.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Fatal("UnmarshalJSON accepted bogus")
	}
	if err := v.UnmarshalJSON([]byte(`7`)); err == nil {
		t.Fatal("UnmarshalJSON accepted a number")
	}
	if got := Verdict(9).String(); got != "Verdict(9)" {
		t.Fatalf("Verdict(9).String() = %q", got)
	}
}

func TestFlipIterString(t *testing.T) {
	cases := map[int]string{
		FlipNever:  "held from initialization",
		FlipRepair: "feasibility repair",
		12:         "iteration 12",
	}
	for fi, want := range cases {
		got := Event{FlipIter: fi}.FlipIterString()
		if !strings.Contains(got, want) {
			t.Errorf("FlipIterString(%d) = %q, want substring %q", fi, got, want)
		}
	}
}

func TestAppendRecentAndEviction(t *testing.T) {
	j := New(4)
	for i := 0; i < 6; i++ {
		j.Append(ev(i, fmt.Sprintf("r%d", i), VerdictDropped))
	}
	if got := j.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	got := j.Recent(Filter{})
	if len(got) != 4 {
		t.Fatalf("Recent len = %d, want 4", len(got))
	}
	// Oldest first, events 2..5 survive, seq stamped 3..6.
	for i, e := range got {
		if e.Window != i+2 || e.Seq != uint64(i+3) {
			t.Fatalf("event %d: window=%d seq=%d", i, e.Window, e.Seq)
		}
	}
}

func TestNewDefaultCap(t *testing.T) {
	j := New(0)
	before := evicted.Value()
	for i := 0; i <= DefaultCap; i++ {
		j.Append(ev(i, "r", VerdictExecuted))
	}
	if got := j.Len(); got != DefaultCap {
		t.Fatalf("Len = %d after %d appends, want the default cap %d", got, DefaultCap+1, DefaultCap)
	}
	if got := evicted.Value() - before; got != 1 {
		t.Fatalf("evicted %d events, want 1", got)
	}
}

// TestRingMatchesModel drives journals of several capacities (below,
// at and across the block length) with a random mix of Append and
// Preload, and checks Len, the eviction count and Recent — unfiltered,
// and with a filter and a limit — against a plain slice holding the
// most recent capacity events.
func TestRingMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 255, 256, 300, 4096} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			j := New(capacity)
			var model []Event
			var seq uint64
			evictions := evicted.Value()
			push := func(e Event) bool {
				model = append(model, e)
				if len(model) > capacity {
					model = model[1:]
					return true
				}
				return false
			}
			check := func(op int) {
				t.Helper()
				if got := j.Len(); got != len(model) {
					t.Fatalf("op %d: Len = %d, want %d", op, got, len(model))
				}
				if got := evicted.Value(); got != evictions {
					t.Fatalf("op %d: evicted counter = %d, want %d", op, got, evictions)
				}
				if got := j.Recent(Filter{}); !slices.Equal(got, model) {
					t.Fatalf("op %d: Recent differs from the model (len %d vs %d)", op, len(got), len(model))
				}
				f := Filter{Rule: "r1", Verdict: VerdictDropped, Limit: 1 + rng.Intn(5)}
				var want []Event
				for _, e := range model {
					if f.Match(e) {
						want = append(want, e)
					}
				}
				if len(want) > f.Limit {
					want = want[len(want)-f.Limit:]
				}
				if got := j.Recent(f); !slices.Equal(got, want) {
					t.Fatalf("op %d: Recent(%+v) = %+v, want %+v", op, f, got, want)
				}
			}
			event := func(i int) Event {
				v := VerdictExecuted
				if rng.Intn(2) == 0 {
					v = VerdictDropped
				}
				return ev(i, fmt.Sprintf("r%d", rng.Intn(3)), v)
			}
			// Restart replay: preload past the capacity, so the
			// preloaded events themselves wrap the ring.
			op := 0
			for ; op < capacity+capacity/2+1; op++ {
				e := event(op)
				e.Seq = uint64(op + 1)
				seq = e.Seq
				j.Preload(e)
				push(e)
			}
			check(op)
			// Then live appends, mixed with preloads of old and new
			// sequence numbers, past the capacity again.
			every := 1 + capacity/64
			for end := op + 2*capacity + 10; op < end; op++ {
				e := event(op)
				if rng.Intn(10) == 0 {
					e.Seq = uint64(rng.Int63n(int64(seq) + 5))
					seq = max(seq, e.Seq)
					j.Preload(e)
					push(e)
				} else {
					seq++
					e.Seq = seq
					j.Append(e)
					if push(e) {
						evictions++
					}
				}
				if op%every == 0 {
					check(op)
				}
			}
			check(op)
		})
	}
}

func TestFilterMatch(t *testing.T) {
	e := ev(3, "ruleA", VerdictDropped)
	cases := []struct {
		f    Filter
		want bool
	}{
		{Filter{}, true},
		{Filter{Rule: "ruleA"}, true},
		{Filter{Rule: "ruleB"}, false},
		{Filter{Owner: "alice"}, true},
		{Filter{Owner: "bob"}, false},
		{Filter{Verdict: VerdictDropped}, true},
		{Filter{Verdict: VerdictExecuted}, false},
		{Filter{Trace: "trace-1"}, true},
		{Filter{Trace: "trace-0"}, false},
		{Filter{Slot: e.Slot}, true},
		{Filter{Slot: e.Slot.Add(time.Hour)}, false},
	}
	for i, c := range cases {
		if got := c.f.Match(e); got != c.want {
			t.Errorf("case %d: Match = %v, want %v", i, got, c.want)
		}
	}
}

func TestRecentLimit(t *testing.T) {
	j := New(8)
	for i := 0; i < 5; i++ {
		j.Append(ev(i, "r", VerdictExecuted))
	}
	got := j.Recent(Filter{Limit: 2})
	if len(got) != 2 || got[0].Window != 3 || got[1].Window != 4 {
		t.Fatalf("Limit=2 returned %+v", got)
	}
}

func TestParseFilter(t *testing.T) {
	slot := time.Date(2025, 6, 1, 7, 0, 0, 0, time.UTC)
	q := url.Values{
		"rule":    {"ruleA"},
		"owner":   {"alice"},
		"verdict": {"dropped"},
		"trace":   {"abc"},
		"slot":    {slot.Format(time.RFC3339)},
		"limit":   {"10"},
	}
	f, err := ParseFilter(q)
	if err != nil {
		t.Fatalf("ParseFilter: %v", err)
	}
	if f.Rule != "ruleA" || f.Owner != "alice" || f.Verdict != VerdictDropped ||
		f.Trace != "abc" || !f.Slot.Equal(slot) || f.Limit != 10 {
		t.Fatalf("ParseFilter = %+v", f)
	}
	for _, bad := range []url.Values{
		{"verdict": {"maybe"}},
		{"slot": {"yesterday"}},
		{"limit": {"-1"}},
		{"limit": {"many"}},
	} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%v) accepted", bad)
		}
	}
}

func TestHandler(t *testing.T) {
	j := New(8)
	j.Append(ev(0, "ruleA", VerdictDropped))
	j.Append(ev(1, "ruleB", VerdictExecuted))

	rr := httptest.NewRecorder()
	j.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/decisions?verdict=dropped", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	var got []Event
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != 1 || got[0].Rule != "ruleA" || got[0].Verdict != VerdictDropped {
		t.Fatalf("filtered events = %+v", got)
	}

	rr = httptest.NewRecorder()
	j.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/decisions?verdict=maybe", nil))
	if rr.Code != 400 {
		t.Fatalf("bad filter status = %d", rr.Code)
	}
}

func TestPreloadRestoresSeq(t *testing.T) {
	j := New(4)
	j.Preload(Event{Seq: 7, Rule: "old"})
	j.Preload(Event{Seq: 9, Rule: "older"})
	if j.Len() != 2 {
		t.Fatalf("Len = %d", j.Len())
	}
	j.Append(ev(0, "new", VerdictDropped))
	got := j.Recent(Filter{Rule: "new"})
	if len(got) != 1 || got[0].Seq != 10 {
		t.Fatalf("append after preload: %+v", got)
	}
	// Preload beyond capacity wraps without panic.
	for i := 0; i < 6; i++ {
		j.Preload(Event{Seq: uint64(20 + i)})
	}
	if j.Len() != 4 {
		t.Fatalf("Len after wrap = %d", j.Len())
	}
}

type recordingSink struct {
	got []Event
	err error
}

func (s *recordingSink) AppendEvent(e Event) error {
	s.got = append(s.got, e)
	return s.err
}

func TestSink(t *testing.T) {
	j := New(4)
	sink := &recordingSink{}
	j.SetSink(sink)
	j.Append(ev(0, "r", VerdictDropped))
	if len(sink.got) != 1 || sink.got[0].Seq != 1 {
		t.Fatalf("sink got %+v", sink.got)
	}
	before := sinkErrors.Value()
	sink.err = errors.New("disk full")
	j.Append(ev(1, "r", VerdictDropped))
	if sinkErrors.Value() != before+1 {
		t.Fatal("sink error not counted")
	}
	if j.Len() != 2 {
		t.Fatal("sink error lost the ring write")
	}
}
