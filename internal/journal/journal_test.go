package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync"
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
// most recent capacity events, and Latest against the same slice
// stably sorted by slot. Events come in runs shaped like plans,
// each run broken at random by a new plan or by a change of trace, slot
// (rewinding, as a replayed week does) or window alone; preloads skip
// and reorder seqs. A last phase churns through rule names ten times
// the capacity, and every check also holds the frame and rule tables
// to the retained entries (checkTables).
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
				// Latest: the model stably sorted by slot, then its tail.
				f = Filter{Verdict: VerdictDropped, Limit: rng.Intn(capacity + 2)}
				want = want[:0]
				for _, e := range model {
					if f.Match(e) {
						want = append(want, e)
					}
				}
				slices.SortStableFunc(want, func(a, b Event) int { return a.Slot.Compare(b.Slot) })
				if f.Limit > 0 && len(want) > f.Limit {
					want = want[len(want)-f.Limit:]
				}
				if got := j.Latest(f); !slices.Equal(got, want) {
					t.Fatalf("op %d: Latest(%+v) differs from the sorted model (len %d vs %d)", op, f, len(got), len(want))
				}
				checkTables(t, op, j)
			}
			traces := []string{"", "trace-0", "trace-1"}
			plan := Event{Slot: time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC), Owner: "alice"}
			rule := func() string { return fmt.Sprintf("r%d", rng.Intn(3)) }
			event := func(i int) Event {
				switch rng.Intn(12) {
				case 0, 1, 2: // the next plan
					plan.Slot = plan.Slot.Add(time.Hour)
					plan.Window++
					plan.Trace = traces[rng.Intn(len(traces))]
				case 3: // the trace alone changes mid-plan
					plan.Trace = traces[rng.Intn(len(traces))]
				case 4: // the slot alone rewinds mid-plan
					plan.Slot = plan.Slot.Add(-time.Duration(rng.Intn(48)) * time.Hour)
				case 5: // the window alone changes mid-plan
					plan.Window = rng.Intn(4)
				}
				e := plan
				e.Rule = rule()
				e.Verdict = VerdictExecuted
				if rng.Intn(2) == 0 {
					e.Verdict = VerdictDropped
				}
				e.EpRemainingKWh, e.EnergyKWh, e.FCEDelta, e.FlipIter = 1.5, 0.2, float64(i)/8, i
				return e
			}
			// Restart replay: preload past the capacity, so the
			// preloaded events themselves wrap the ring. Seqs mostly
			// follow on, sometimes after a gap.
			op := 0
			for ; op < capacity+capacity/2+1; op++ {
				e := event(op)
				if rng.Intn(8) == 0 {
					seq += uint64(1 + rng.Intn(3))
				}
				seq++
				e.Seq = seq
				j.Preload(e)
				push(e)
			}
			check(op)
			// Then live appends, mixed with preloads of old and new
			// sequence numbers, past the capacity again.
			live := func(end, every int) {
				for ; op < end; op++ {
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
			}
			live(op+2*capacity+10, 1+capacity/64)
			// Rule-name churn: ten times the capacity in fresh
			// (rule, owner) pairs, each named by a few events at most.
			calls, names, owners := 0, 0, []string{"alice", "bob"}
			rule = func() string {
				if calls++; calls%3 != 0 {
					names++
				}
				plan.Owner = owners[names%2]
				return fmt.Sprintf("churn-%d", names)
			}
			live(op+15*capacity+3, 1+capacity/8)
			if names < 10*capacity {
				t.Fatalf("churn named %d rules, want at least %d", names, 10*capacity)
			}
		})
	}
}

// checkTables holds j's frame and rule tables to its retained entries:
// every entry is counted once by its frame block and once by its rule
// row, the rule table has no more rows in use than entries (nor more
// rows at all than the capacity), and the frame blocks in use are no
// more than the live frames fill plus one.
func checkTables(t *testing.T, op int, j *Journal) {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	frames := map[uint32]bool{}
	for i := 0; i < j.n; i++ {
		frames[j.blocks[i/blockLen][i%blockLen].frame] = true
	}
	var blockRefs, inUse int
	for _, c := range j.frameLive {
		blockRefs += int(c)
		if c > 0 {
			inUse++
		}
	}
	if blockRefs != j.n {
		t.Fatalf("op %d: frame blocks count %d entries, want %d", op, blockRefs, j.n)
	}
	if most := (len(frames)+frameBlockLen-1)/frameBlockLen + 1; inUse > most {
		t.Fatalf("op %d: %d frame blocks in use for %d live frames, want at most %d", op, inUse, len(frames), most)
	}
	if most := j.capacity/frameBlockLen + 2; len(j.frames) > most {
		t.Fatalf("op %d: %d frame blocks allocated, want at most %d", op, len(j.frames), most)
	}
	var rows, ruleRefs int
	for _, r := range j.rules {
		if r.refs > 0 {
			rows++
			ruleRefs += int(r.refs)
		}
	}
	if ruleRefs != j.n {
		t.Fatalf("op %d: rule rows count %d entries, want %d", op, ruleRefs, j.n)
	}
	if rows > j.n || len(j.rules) > j.capacity || rows+len(j.freeRules) != len(j.rules) {
		t.Fatalf("op %d: rule table has %d rows, %d in use and %d free, for %d entries (cap %d)",
			op, len(j.rules), rows, len(j.freeRules), j.n, j.capacity)
	}
	if j.ruleIdx != nil && len(j.ruleIdx) != rows {
		t.Fatalf("op %d: rule index has %d keys for %d rows in use", op, len(j.ruleIdx), rows)
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

// roundTripEvents are events at the edges of the ring's packed slot:
// both FlipIter sentinels, the int32 limits of Window and FlipIter, a
// zero slot, sub-second and pre-1970 slots, and float values the slot
// must keep exact.
func roundTripEvents() []Event {
	return []Event{
		{Slot: time.Time{}, Rule: "zero", Verdict: VerdictExecuted, FlipIter: FlipNever},
		{
			Slot: time.Date(2025, 6, 1, 7, 0, 0, 0, time.UTC), Window: 3, Rule: "r1", Owner: "alice",
			Verdict: VerdictDropped, Trace: "4bf92f3577b34da6a3ce929d0e0e4736",
			EpRemainingKWh: -0.125, EnergyKWh: 0.1, FCEDelta: 1.0 / 3, FlipIter: FlipRepair,
		},
		{
			Slot: time.Date(2025, 6, 1, 7, 59, 59, 999999999, time.UTC), Window: math.MaxInt32, Rule: "r2",
			Owner: "bob", Verdict: VerdictExecuted, EpRemainingKWh: math.MaxFloat64,
			EnergyKWh: math.SmallestNonzeroFloat64, FlipIter: math.MaxInt32,
		},
		{
			Slot: time.Date(1969, 12, 31, 23, 59, 59, 1, time.UTC), Window: 0, Rule: "r3",
			Verdict: VerdictDropped, FCEDelta: 2.5, FlipIter: 0,
		},
	}
}

// TestRingRoundTripsEvents checks that an event read back from the
// ring equals, field for field, the event appended — and the event the
// sink received — and that events preloaded from a persisted log (one
// JSON line each, as persistence.JournalLog writes them) read back
// equal too.
func TestRingRoundTripsEvents(t *testing.T) {
	in := roundTripEvents()
	j := New(len(in))
	sink := &recordingSink{}
	j.SetSink(sink)
	want := make([]Event, len(in))
	for i, e := range in {
		j.Append(e)
		e.Seq = uint64(i + 1)
		want[i] = e
	}
	if got := j.Recent(Filter{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Recent after Append:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(sink.got, want) {
		t.Fatalf("sink received %+v, want %+v", sink.got, want)
	}

	restarted := New(len(in))
	for _, e := range want {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var back Event
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		restarted.Preload(back)
	}
	if got := restarted.Recent(Filter{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Recent after Preload from the log:\n got %+v\nwant %+v", got, want)
	}
}

// TestConcurrentAppendAndRead appends from several goroutines, each
// with its own plans and rule names, while others read with Recent and
// Latest, as fleet workers and /debug/decisions do: under -race it
// checks the ring's locking, and afterwards the tables still account
// for exactly the retained entries.
func TestConcurrentAppendAndRead(t *testing.T) {
	const capacity, writers, appends = 64, 4, 2000
	j := New(capacity)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				j.Append(Event{
					Slot: time.Date(2025, 6, 1, i/3%24, 0, 0, 0, time.UTC), Window: i / 3,
					Rule: fmt.Sprintf("w%d-r%d", w, i%40), Verdict: VerdictExecuted,
				})
			}
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := j.Latest(Filter{Limit: 5}); len(got) > 5 {
					t.Errorf("Latest(limit 5) returned %d events", len(got))
				}
				if got := j.Recent(Filter{}); len(got) > capacity {
					t.Errorf("Recent returned %d events, over the cap %d", len(got), capacity)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := j.Len(); got != capacity {
		t.Fatalf("Len = %d, want %d", got, capacity)
	}
	checkTables(t, writers*appends, j)
}
