package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/obs"
	"github.com/imcf/imcf/internal/simclock"
)

// flightTraceparent is the fixed W3C trace this e2e threads through
// both requests; its trace ID is what every bundle section must carry.
const flightTraceparent = "00-feedfacecafebeef0123456789abcdef-0123456789abcdef-01"

// TestDaemonDegradedFlightBundleCorrelation is the flight-recorder
// e2e: a healthy planning run and a disk-fault-driven degraded flip,
// both under ONE trace, must leave a well-formed bundle whose log
// records, spans and journal events all carry that triggering trace
// ID — the "one correlated evidence trail" contract.
func TestDaemonDegradedFlightBundleCorrelation(t *testing.T) {
	oldLevel := obs.DefaultHandler().Level()
	obs.SetLevel(slog.LevelDebug)
	defer obs.SetLevel(oldLevel)

	tc, ok := metrics.ParseTraceparent(flightTraceparent)
	if !ok {
		t.Fatal("test traceparent does not parse")
	}
	traceID := tc.TraceIDString()

	mem := faultfs.NewMemFS()
	var diskFull atomic.Bool
	inj := faultfs.InjectorFunc(func(op faultfs.FaultOp) *faultfs.Fault {
		if !diskFull.Load() || !strings.HasSuffix(op.Path, "store.wal") {
			return nil
		}
		if op.Op == faultfs.OpWrite || op.Op == faultfs.OpSync {
			return &faultfs.Fault{Err: syscall.ENOSPC}
		}
		return nil
	})

	d, err := New(Options{
		Addr:            "127.0.0.1:0",
		MetricsAddr:     "127.0.0.1:0",
		Residence:       "prototype",
		Seed:            7,
		Mode:            "EP",
		WeeklyBudgetKWh: 165,
		// 03:00 in January: the night-heat rule is active, so the
		// planning run below journals a verdict whatever the wall clock.
		Clock:          simclock.NewSimClock(time.Date(2015, time.January, 10, 3, 0, 0, 0, time.UTC)),
		StoreDir:       "/flight/store",
		DiagnosticsDir: "/flight/diag",
		FS:             faultfs.NewFaulty(mem, inj),
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	d.Start()
	api := "http://" + d.APIAddr()

	traced := func(method, url, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(metrics.TraceHeader, flightTraceparent)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		return resp
	}

	// A healthy planning run under the trace: it journals decisions and
	// records spans carrying the trace ID.
	if resp := traced("POST", api+"/rest/plan/run", "{}"); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /rest/plan/run = %d, want 200", drainStatus(resp))
	} else {
		resp.Body.Close()
	}

	// The disk fills; the next mutation under the SAME trace fails and
	// flips the daemon degraded, which triggers the flight recorder
	// with the request's trace as the correlation key.
	mrtJSON := getBodyOK(t, api+"/rest/mrt")
	diskFull.Store(true)
	if resp := traced("POST", api+"/rest/mrt", mrtJSON); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("disk-full POST /rest/mrt = %d, want 500", drainStatus(resp))
	} else {
		resp.Body.Close()
	}
	if !d.Degraded() {
		t.Fatal("daemon not degraded after the persist failure")
	}

	// Exactly one bundle landed (on the injected filesystem). MemFS has
	// no listing, so derive bundle directories from its paths.
	dirs := map[string]bool{}
	for _, p := range mem.Paths() {
		if strings.HasPrefix(p, "/flight/diag/") {
			dirs[filepath.Dir(p)] = true
		}
	}
	if len(dirs) != 1 {
		t.Fatalf("found %d bundle directories, want 1: %v", len(dirs), dirs)
	}
	var bundle string
	for dir := range dirs {
		bundle = dir
	}

	readSection := func(name string) []byte {
		t.Helper()
		b, err := mem.ReadFile(filepath.Join(bundle, name))
		if err != nil {
			t.Fatalf("bundle section %s: %v", name, err)
		}
		return b
	}

	// The marker vouches for the bundle and names the trigger.
	var meta obs.Meta
	if err := json.Unmarshal(readSection(obs.MetaName), &meta); err != nil {
		t.Fatalf("bundle marker: %v", err)
	}
	if meta.Reason != "degraded" || meta.Tenant != DefaultTenantID || meta.Trace != traceID {
		t.Fatalf("meta = %+v, want reason=degraded tenant=%s trace=%s", meta, DefaultTenantID, traceID)
	}

	// Every log record in the bundle carries the triggering trace,
	// including the degraded-entry record itself.
	logLines := strings.Split(strings.TrimSpace(string(readSection("logs.jsonl"))), "\n")
	if len(logLines) == 0 || logLines[0] == "" {
		t.Fatal("bundle has no log records")
	}
	sawDegradedEntry := false
	for _, line := range logLines {
		var rec obs.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec.Trace != traceID {
			t.Fatalf("log record %q carries trace %q, want %q", rec.Msg, rec.Trace, traceID)
		}
		if strings.Contains(rec.Msg, "degraded") {
			sawDegradedEntry = true
		}
	}
	if !sawDegradedEntry {
		t.Fatal("bundle logs are missing the degraded-entry record")
	}

	// Every span shares the trace.
	var spans []metrics.SpanRecord
	if err := json.Unmarshal(readSection("spans.json"), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("bundle has no spans")
	}
	for _, sp := range spans {
		if sp.Trace != traceID {
			t.Fatalf("span %q carries trace %q, want %q", sp.Name, sp.Trace, traceID)
		}
	}

	// Every journal event shares the trace — the planning run's
	// decisions, pinned to the same causal chain.
	jnlLines := strings.Split(strings.TrimSpace(string(readSection("journal.jsonl"))), "\n")
	if len(jnlLines) == 0 || jnlLines[0] == "" {
		t.Fatal("bundle has no journal events")
	}
	for _, line := range jnlLines {
		var ev journal.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if ev.Trace != traceID {
			t.Fatalf("journal event seq %d carries trace %q, want %q", ev.Seq, ev.Trace, traceID)
		}
	}

	// The degraded flip also shows on /healthz as SLO detail context.
	hresp, err := http.Get("http://" + d.MetricsAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	var hz struct {
		Status string             `json:"status"`
		SLO    []obs.TenantStatus `json:"slo"`
	}
	if err := json.Unmarshal(hbody, &hz); err != nil {
		t.Fatalf("unparseable /healthz %q: %v", hbody, err)
	}
	if hz.Status != "degraded" {
		t.Fatalf("/healthz status = %q, want degraded", hz.Status)
	}

	// The disk recovers and the next mutation probes and heals. Beyond
	// closing the loop, this clears the process-global degraded gauge,
	// which outlives this daemon and would otherwise leak into later
	// tests in the package.
	diskFull.Store(false)
	if resp := traced("POST", api+"/rest/mrt", mrtJSON); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery POST /rest/mrt = %d, want 200", drainStatus(resp))
	} else {
		resp.Body.Close()
	}
	if d.Degraded() {
		t.Fatal("daemon still degraded after the disk recovered")
	}
}

// TestObsEquivalence is the behavior-preservation gate for the obs
// layer: the same fleet workload, run with observability fully enabled
// (debug-level logging, SLO feed) and fully disabled, at 1 and 8 fleet
// workers, must produce bit-identical subject ledger hashes — proving
// the flight recorder's substrates never perturb planning bytes.
func TestObsEquivalence(t *testing.T) {
	runOnce := func(t *testing.T, workers int, obsOn bool) uint64 {
		t.Helper()
		oldLevel := obs.DefaultHandler().Level()
		if obsOn {
			obs.SetLevel(slog.LevelDebug)
		} else {
			obs.SetEnabled(false)
		}
		defer func() {
			obs.SetLevel(oldLevel)
			obs.SetEnabled(true)
		}()

		dir := t.TempDir()
		clk := simclock.NewSimClock(equivStart)
		d, err := New(Options{
			Addr: "127.0.0.1:0",
			Tenants: []TenantSpec{
				{ID: equivSubjectID, Residence: "prototype", Seed: 7, WeeklyBudgetKWh: 165},
				{ID: "aa-noisy1", Residence: "flat", Seed: 1001, WeeklyBudgetKWh: 90},
				{ID: "zz-noisy2", Residence: "house", Seed: 1002, WeeklyBudgetKWh: 300},
			},
			FleetWorkers:   workers,
			StoreDir:       filepath.Join(dir, "store"),
			StoreBackend:   "wal",
			PersistDir:     filepath.Join(dir, "persist"),
			DiagnosticsDir: filepath.Join(dir, "diag"),
			Clock:          clk,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		runEquivWorkload(t, d, clk, equivSubjectID)
		hash, evs := ledgerHash(t, d.Tenant(equivSubjectID).Journal())
		if len(evs) == 0 {
			t.Fatal("workload journaled nothing — the equivalence is vacuous")
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return hash
	}

	hashes := map[string]uint64{}
	for _, workers := range []int{1, 8} {
		for _, obsOn := range []bool{false, true} {
			key := fmt.Sprintf("workers=%d/obs=%v", workers, obsOn)
			t.Run(key, func(t *testing.T) {
				hashes[key] = runOnce(t, workers, obsOn)
			})
		}
	}
	var ref uint64
	var refKey string
	for key, h := range hashes {
		if refKey == "" {
			ref, refKey = h, key
			continue
		}
		if h != ref {
			t.Fatalf("ledger hash diverged: %s=%#x vs %s=%#x", refKey, ref, key, h)
		}
	}
}

// TestDaemonSLOPageTriggersBundle drives the SLO state machine to page
// through the fleet's failure feed and asserts the transition snapshots
// a flight bundle attributed to the failing tenant.
func TestDaemonSLOPageTriggersBundle(t *testing.T) {
	mem := faultfs.NewMemFS()
	clk := simclock.NewSimClock(time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	d, err := New(Options{
		Addr:            "127.0.0.1:0",
		Residence:       "prototype",
		Seed:            7,
		Mode:            "manual", // manual mode: cycles are cheap no-op plans
		WeeklyBudgetKWh: 165,
		DiagnosticsDir:  "/slo/diag",
		FS:              mem,
		Clock:           clk,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup

	// Feed the SLO engine a sustained failure stream directly (the same
	// path fleet workers use) and evaluate: burn rate saturates in both
	// short windows and the tenant pages.
	for i := 0; i < 30; i++ {
		d.SLO().Observe(DefaultTenantID, clk.Now(), 0.001, true)
		clk.Advance(time.Second)
	}
	d.SLO().Evaluate(clk.Now())
	if got := d.SLO().State(DefaultTenantID); got != obs.StatePage {
		t.Fatalf("SLO state = %v, want page", got)
	}

	var bundles []string
	for _, p := range mem.Paths() {
		if strings.HasPrefix(p, "/slo/diag/") && strings.HasSuffix(p, obs.MetaName) {
			bundles = append(bundles, p)
		}
	}
	if len(bundles) != 1 {
		t.Fatalf("found %d slo-page bundles, want 1 (paths: %v)", len(bundles), mem.Paths())
	}
	b, err := mem.ReadFile(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	var meta obs.Meta
	if err := json.Unmarshal(b, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "slo-page" || meta.Tenant != DefaultTenantID {
		t.Fatalf("meta = %+v, want reason=slo-page tenant=%s", meta, DefaultTenantID)
	}
}
