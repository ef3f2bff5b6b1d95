package daemon

import (
	"encoding/json"
	"net/http"
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
			Logf:            t.Logf,
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
		if ev.Trace != tc.TraceIDString() {
			t.Fatalf("event trace %q, want %q", ev.Trace, tc.TraceIDString())
		}
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

// TestDaemonJournalDisabled pins that JournalCap < 0 removes the
// journal and its endpoints.
func TestDaemonJournalDisabled(t *testing.T) {
	d, err := New(Options{
		Addr:            "127.0.0.1:0",
		MetricsAddr:     "127.0.0.1:0",
		Residence:       "flat",
		WeeklyBudgetKWh: 165,
		JournalCap:      -1,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	d.Start()
	if d.def.journal != nil {
		t.Fatal("JournalCap -1 still built a journal")
	}
	if code := getStatus(t, "http://"+d.MetricsAddr()+"/debug/decisions"); code != http.StatusNotFound {
		t.Fatalf("/debug/decisions with journaling disabled = %d, want 404", code)
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
