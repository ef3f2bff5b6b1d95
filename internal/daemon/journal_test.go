package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/simclock"
)

// TestDaemonJournalEndpointsAndRestart drives a traced planning cycle
// through the daemon, reads it back over /debug/decisions and
// /debug/trace/{id}, then restarts the daemon on the same persistence
// directory and checks the journal replayed — the acceptance path for
// "explain a decision after a restart".
func TestDaemonJournalEndpointsAndRestart(t *testing.T) {
	persistDir := t.TempDir()
	newDaemon := func() *Daemon {
		clock := simclock.NewSimClock(time.Date(2021, time.January, 9, 3, 0, 0, 0, time.UTC))
		d, err := New(Options{
			Addr:        "127.0.0.1:0",
			MetricsAddr: "127.0.0.1:0",
			Residence:   "flat",
			Seed:        7,
			Mode:        "EP",
			// Tight budget: forces drops so the journal has verdicts
			// worth explaining.
			WeeklyBudgetKWh: 5,
			PersistDir:      persistDir,
			Clock:           clock,
			Binding:         &flakyBinding{},
		})
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		return d
	}

	d := newDaemon()
	tc := metrics.NewTrace()

	// One traced planning cycle.
	req, err := http.NewRequest(http.MethodPost, "http://"+d.APIAddr()+"/rest/plan/run", nil)
	if err != nil {
		t.Fatal(err)
	}
	metrics.InjectTrace(req, tc)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/rest/plan/run = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("traceparent"); got == "" {
		t.Error("response did not echo a traceparent header")
	}

	obs := "http://" + d.MetricsAddr()
	decisions := getDecisions(t, obs+"/debug/decisions")
	if len(decisions) == 0 {
		t.Fatal("no journal events after a planning cycle")
	}
	dropped := getDecisions(t, obs+"/debug/decisions?verdict=dropped")
	if len(dropped) == 0 {
		t.Fatal("5 kWh/week budget dropped nothing")
	}
	for _, ev := range dropped {
		if ev.Trace != tc.TraceIDString() || ev.Verdict != journal.VerdictDropped {
			t.Fatalf("event trace %q verdict %v, want %q dropped", ev.Trace, ev.Verdict, tc.TraceIDString())
		}
	}
	if code := getStatus(t, obs+"/debug/decisions?verdict=maybe"); code != http.StatusBadRequest {
		t.Fatalf("/debug/decisions with a bad filter = %d, want 400", code)
	}

	// The trace endpoint ties spans and decisions to the same ID.
	var tr struct {
		Trace     string               `json:"trace"`
		Spans     []metrics.SpanRecord `json:"spans"`
		Decisions []journal.Event      `json:"decisions"`
	}
	getJSON(t, obs+"/debug/trace/"+tc.TraceIDString(), &tr)
	if tr.Trace != tc.TraceIDString() {
		t.Fatalf("trace endpoint returned %q", tr.Trace)
	}
	if len(tr.Decisions) != len(decisions) {
		t.Fatalf("trace endpoint returned %d decisions, journal holds %d", len(tr.Decisions), len(decisions))
	}
	spanNames := make(map[string]bool)
	for _, sp := range tr.Spans {
		spanNames[sp.Name] = true
	}
	for _, want := range []string{"http.api", "controller.step"} {
		if !spanNames[want] {
			t.Errorf("trace %s missing span %q (have %v)", tc.TraceIDString(), want, spanNames)
		}
	}

	// Exemplars endpoint responds and mentions the trace's histogram.
	if code := getStatus(t, obs+"/debug/exemplars"); code != http.StatusOK {
		t.Fatalf("/debug/exemplars = %d", code)
	}

	// Restart on the same directory: the journal must replay.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := newDaemon()
	defer d2.Close() //nolint:errcheck
	replayed := getDecisions(t, "http://"+d2.MetricsAddr()+"/debug/decisions")
	if len(replayed) != len(decisions) {
		t.Fatalf("restarted daemon replayed %d events, want %d", len(replayed), len(decisions))
	}
	if replayed[0].Seq != decisions[0].Seq || replayed[0].Rule != decisions[0].Rule {
		t.Fatalf("replayed journal diverges: %+v vs %+v", replayed[0], decisions[0])
	}
}

// TestDaemonJournalDisabled pins that journaling cannot be turned off:
// a negative JournalCap, which once removed the journal and its
// endpoints, is rejected, and a zero one still builds the journal and
// serves /debug/decisions.
func TestDaemonJournalDisabled(t *testing.T) {
	_, err := New(Options{Addr: "127.0.0.1:0", Residence: "flat", WeeklyBudgetKWh: 165, JournalCap: -1})
	if err == nil || !strings.Contains(err.Error(), "journal capacity") {
		t.Fatalf("JournalCap -1: err = %v, want a journal capacity error", err)
	}
	d, err := New(Options{
		Addr:            "127.0.0.1:0",
		MetricsAddr:     "127.0.0.1:0",
		Residence:       "flat",
		WeeklyBudgetKWh: 165,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	d.Start()
	if d.def.journal == nil {
		t.Fatal("JournalCap 0 built no journal")
	}
	if code := getStatus(t, "http://"+d.MetricsAddr()+"/debug/decisions"); code != http.StatusOK {
		t.Fatalf("/debug/decisions = %d, want 200", code)
	}
}

// TestDaemonDecisionsBytesMatchEvents preloads events at the edges of
// the journal ring's packed slot (FlipIter sentinels, int32 limits,
// zero and sub-second slots) and checks GET /debug/decisions serves,
// byte for byte, the JSON of those events with the tenant stamped.
func TestDaemonDecisionsBytesMatchEvents(t *testing.T) {
	d, err := New(Options{Addr: "127.0.0.1:0", Residence: "flat", WeeklyBudgetKWh: 165})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	want := []journal.Event{
		{Seq: 1, Slot: time.Time{}, Rule: "zero", Verdict: journal.VerdictExecuted, FlipIter: journal.FlipNever},
		{Seq: 2, Slot: time.Date(2021, 4, 12, 7, 0, 0, 0, time.UTC), Window: 3, Rule: "r1", Owner: "Father",
			Verdict: journal.VerdictDropped, Trace: "4bf92f3577b34da6a3ce929d0e0e4736",
			EpRemainingKWh: -0.125, EnergyKWh: 0.1, FCEDelta: 1.0 / 3, FlipIter: journal.FlipRepair},
		{Seq: 3, Slot: time.Date(2021, 4, 12, 7, 59, 59, 999999999, time.UTC), Window: math.MaxInt32, Rule: "r2",
			Verdict: journal.VerdictExecuted, EpRemainingKWh: 2.5, FlipIter: math.MaxInt32},
	}
	for _, ev := range want {
		d.def.journal.Preload(ev)
	}
	for i := range want {
		want[i].Tenant = d.def.id
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(want); err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	d.decisionsHandler(rr, httptest.NewRequest("GET", "/debug/decisions", nil))
	if got := rr.Body.String(); got != body.String() {
		t.Fatalf("/debug/decisions body:\n got %s\nwant %s", got, body.String())
	}
}

// TestDaemonLimitedMergeMatchesFullMerge pins that a limited decision
// query, where each tenant contributes only its own last events,
// serves exactly the bytes the full merge (every retained event of
// every tenant, sorted by slot, then cut to the limit) serves. The
// rings wrap, and their slots rewind as a replayed week's do, so a
// tenant's last events by slot are not its ring's tail.
func TestDaemonLimitedMergeMatchesFullMerge(t *testing.T) {
	d, err := New(Options{
		Addr: "127.0.0.1:0",
		Tenants: []TenantSpec{
			{ID: "h1", Residence: "flat", Seed: 1},
			{ID: "h2", Residence: "prototype", Seed: 2},
			{ID: "h3", Residence: "flat", Seed: 3},
		},
		WeeklyBudgetKWh: 165,
		JournalCap:      50,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	week := time.Date(2021, time.January, 4, 0, 0, 0, 0, time.UTC)
	for ti, tn := range d.tenants {
		// Three 20-hour "weeks" per tenant, one to three verdicts an
		// hour, each tenant starting at its own hour.
		for step := 0; step < 60; step++ {
			slot := week.Add(time.Duration((step+ti)%20) * time.Hour)
			for k := 0; k <= (step+ti)%3; k++ {
				v := journal.VerdictExecuted
				if (step+k)%4 == 0 {
					v = journal.VerdictDropped
				}
				tn.journal.Append(journal.Event{Slot: slot, Window: step, Rule: "r" + strconv.Itoa(k), Verdict: v})
			}
		}
	}
	fullMerge := func(f journal.Filter) []journal.Event {
		out := []journal.Event{}
		for _, tn := range d.tenants {
			if f.Tenant != "" && tn.id != f.Tenant {
				continue
			}
			evs := tn.journal.Recent(journal.Filter{Rule: f.Rule, Verdict: f.Verdict})
			for i := range evs {
				evs[i].Tenant = tn.id
			}
			out = append(out, evs...)
		}
		slices.SortStableFunc(out, func(a, b journal.Event) int { return a.Slot.Compare(b.Slot) })
		if f.Limit > 0 && len(out) > f.Limit {
			out = out[len(out)-f.Limit:]
		}
		return out
	}
	for _, query := range []string{
		"limit=1", "limit=2", "limit=3", "limit=7", "limit=10", "limit=49", "limit=50",
		"limit=51", "limit=149", "limit=150", "limit=1000", "",
		"verdict=dropped&limit=5", "rule=r1&limit=9", "tenant=h2&limit=12", "tenant=h3",
	} {
		q, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		f, err := journal.ParseFilter(q)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(fullMerge(f)); err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		d.decisionsHandler(rr, httptest.NewRequest("GET", "/debug/decisions?"+query, nil))
		if got := rr.Body.String(); got != want.String() {
			t.Errorf("/debug/decisions?%s:\n got %s\nwant %s", query, got, want.String())
		}
	}
}

// TestDaemonLimitKeepsNewestAcrossTenants pins that a limited
// process-wide decision query returns the newest events of every
// tenant, not the tail of whichever tenant sorts last by ID: the
// merged stream is ordered by slot before the limit applies, with
// ties in tenant-ID order.
func TestDaemonLimitKeepsNewestAcrossTenants(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2021, time.April, 12, 0, 0, 0, 0, time.UTC))
	d, err := New(Options{
		Addr:        "127.0.0.1:0",
		MetricsAddr: "127.0.0.1:0",
		Tenants: []TenantSpec{
			{ID: "h1", Residence: "flat", Seed: 1},
			{ID: "h2", Residence: "flat", Seed: 2},
		},
		WeeklyBudgetKWh: 165,
		Clock:           clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	d.Start()
	for cycle := 0; cycle < 3; cycle++ {
		if err := d.Fleet().Cycle(context.Background()); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		clock.Advance(time.Hour)
	}

	base := "http://" + d.MetricsAddr() + "/debug/decisions"
	all := getDecisions(t, base)
	for i := 1; i < len(all); i++ {
		if all[i].Slot.Before(all[i-1].Slot) {
			t.Errorf("merged events out of slot order at %d: %v after %v", i, all[i].Slot, all[i-1].Slot)
			break
		}
		if all[i].Slot.Equal(all[i-1].Slot) && all[i].Tenant < all[i-1].Tenant {
			t.Errorf("slot tie at %d not in tenant-ID order: %s after %s", i, all[i].Tenant, all[i-1].Tenant)
			break
		}
	}
	// Each flat home journals one verdict per night-time step, so the
	// newest slot holds one event per tenant.
	const limit = 2
	if len(all) < 2*limit {
		t.Fatalf("only %d events journaled across both tenants", len(all))
	}
	got := getDecisions(t, base+"?limit="+strconv.Itoa(limit))
	if len(got) != limit {
		t.Fatalf("limit=%d returned %d events", limit, len(got))
	}
	newest := all[len(all)-1].Slot
	tenants := map[string]bool{}
	for i, ev := range got {
		if want := all[len(all)-limit+i]; ev.Tenant != want.Tenant || ev.Seq != want.Seq {
			t.Errorf("limited event %d = %s#%d, want %s#%d", i, ev.Tenant, ev.Seq, want.Tenant, want.Seq)
		}
		if !ev.Slot.Equal(newest) {
			t.Errorf("limited event %d from slot %v, want the newest slot %v", i, ev.Slot, newest)
		}
		tenants[ev.Tenant] = true
	}
	if !tenants["h1"] || !tenants["h2"] {
		t.Errorf("limit=%d kept tenants %v, want both h1 and h2", limit, tenants)
	}
}

func getDecisions(t *testing.T, url string) []journal.Event {
	t.Helper()
	var out []journal.Event
	getJSON(t, url, &out)
	return out
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}
