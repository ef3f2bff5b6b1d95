package imcf_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/client"
	"github.com/imcf/imcf/internal/cloud"
	"github.com/imcf/imcf/internal/daemon"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/simclock"
)

// TestE2ETracing drives a simulated day through the full APP → cloud
// relay → Local Controller chain with one minted trace, then checks the
// causal record end to end: the trace ID spans every hop, each dropped
// rule has exactly one journal event per slot, and after a daemon
// restart the real imcf-explain binary still answers "why was rule R
// dropped at slot S" from the replayed journal.
func TestE2ETracing(t *testing.T) {
	if testing.Short() {
		t.Skip("binary e2e skipped in -short mode")
	}
	persistDir := t.TempDir()
	start := time.Date(2021, time.January, 9, 0, 0, 0, 0, time.UTC)
	newDaemon := func(at time.Time) (*daemon.Daemon, *simclock.SimClock) {
		clock := simclock.NewSimClock(at)
		d, err := daemon.New(daemon.Options{
			Addr:        "127.0.0.1:0",
			MetricsAddr: "127.0.0.1:0",
			Residence:   "flat",
			Seed:        7,
			Mode:        "EP",
			// Tight weekly budget: every day must drop something.
			WeeklyBudgetKWh: 5,
			PersistDir:      persistDir,
			Clock:           clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		return d, clock
	}

	d, clock := newDaemon(start)

	// The cloud relay fronts the daemon, the SDK talks through it —
	// the paper's APP → CC → LC chain, over real loopback HTTP.
	relay := cloud.NewRelay("", nil)
	relaySrv := httptest.NewServer(relay.Handler())
	defer relaySrv.Close()
	if err := relay.Register("home", "http://"+d.APIAddr()); err != nil {
		t.Fatal(err)
	}
	cl, err := client.New(relaySrv.URL+"/cc/sites/home", nil)
	if err != nil {
		t.Fatal(err)
	}

	tc := metrics.NewTrace()
	ctx := metrics.ContextWithTrace(t.Context(), tc)

	// One simulated day, all cycles under the same trace.
	type slotVerdicts struct {
		at       time.Time
		dropped  []string
		executed []string
	}
	var day []slotVerdicts
	totalDropped := 0
	for hour := 0; hour < 24; hour++ {
		report, err := cl.RunPlan(ctx)
		if err != nil {
			t.Fatalf("hour %d: %v", hour, err)
		}
		day = append(day, slotVerdicts{at: report.Time, dropped: report.Dropped, executed: report.Executed})
		totalDropped += len(report.Dropped)
		clock.Advance(time.Hour)
	}
	if totalDropped == 0 {
		t.Fatal("a 5 kWh/week budget dropped nothing all day")
	}

	// The trace endpoint ties every hop to the one minted ID.
	var tr struct {
		Spans     []metrics.SpanRecord `json:"spans"`
		Decisions []journal.Event      `json:"decisions"`
	}
	resp, err := http.Get("http://" + d.MetricsAddr() + "/debug/trace/" + tc.TraceIDString())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	spanNames := make(map[string]bool)
	for _, sp := range tr.Spans {
		spanNames[sp.Name] = true
	}
	for _, hop := range []string{"client.request", "http.cloud", "cloud.proxy", "http.api", "controller.step"} {
		if !spanNames[hop] {
			t.Errorf("trace %s missing hop %q (have %v)", tc.TraceIDString(), hop, spanNames)
		}
	}
	if len(tr.Decisions) == 0 {
		t.Fatal("trace carries no journal decisions")
	}

	// Every dropped rule at every slot: exactly one journal event.
	j := d.Tenant(daemon.DefaultTenantID).Journal()
	for _, sv := range day {
		for _, id := range sv.dropped {
			evs := j.Recent(journal.Filter{Rule: id, Slot: sv.at, Verdict: journal.VerdictDropped})
			if len(evs) != 1 {
				t.Fatalf("rule %s at %v: %d dropped events, want 1", id, sv.at, len(evs))
			}
			if evs[0].Trace != tc.TraceIDString() {
				t.Errorf("rule %s at %v: trace %q, want %q", id, sv.at, evs[0].Trace, tc.TraceIDString())
			}
		}
		for _, id := range sv.executed {
			evs := j.Recent(journal.Filter{Rule: id, Slot: sv.at, Verdict: journal.VerdictExecuted})
			if len(evs) != 1 {
				t.Fatalf("rule %s at %v: %d executed events, want 1", id, sv.at, len(evs))
			}
		}
	}
	before := j.Len()

	// Pick a dropped (rule, slot) to explain after the restart.
	var explainRule string
	var explainSlot time.Time
	for _, sv := range day {
		if len(sv.dropped) > 0 {
			explainRule, explainSlot = sv.dropped[0], sv.at
			break
		}
	}

	// Restart the daemon on the same persistence directory: the journal
	// replays and the real imcf-explain binary explains the old verdict.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, _ := newDaemon(start.Add(24 * time.Hour))
	defer d2.Close() //nolint:errcheck
	if got := d2.Tenant(daemon.DefaultTenantID).Journal().Len(); got != before {
		t.Fatalf("restarted daemon replayed %d events, want %d", got, before)
	}

	bin := buildBinary(t, "./cmd/imcf-explain")
	out, err := exec.Command(bin,
		"-rule", explainRule,
		"-slot", explainSlot.Format(time.RFC3339),
		"-verdict", "dropped",
		"-daemon", "http://"+d2.MetricsAddr(),
	).CombinedOutput()
	if err != nil {
		t.Fatalf("imcf-explain: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"was dropped", "E_p remaining", "k-opt", tc.TraceIDString()} {
		if !strings.Contains(text, want) {
			t.Errorf("explanation missing %q:\n%s", want, text)
		}
	}
}
