package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"github.com/imcf/imcf/internal/faultfs"
)

// TestDaemonDegradedMode is the degraded-mode e2e: boot a full daemon
// on a fault-injectable in-memory filesystem, make the "disk" return
// ENOSPC on WAL writes, and assert the daemon flips to read-only
// degraded mode (mutations 503 with Retry-After, reads still 200,
// /healthz reporting "degraded", metrics counting) instead of crashing
// — then heal the disk and watch full service resume on its own.
func TestDaemonDegradedMode(t *testing.T) {
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
		StoreDir:        "/degraded/store",
		FS:              faultfs.NewFaulty(mem, inj),
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	d.Start()

	api := "http://" + d.APIAddr()
	obs := "http://" + d.MetricsAddr()

	// Grab the active MRT so mutations can POST back a valid table —
	// any failure is then unambiguously the storage layer's.
	mrtJSON := getBodyOK(t, api+"/rest/mrt")

	postMRT := func() *http.Response {
		resp, err := http.Post(api+"/rest/mrt", "application/json", strings.NewReader(mrtJSON))
		if err != nil {
			t.Fatalf("POST /rest/mrt: %v", err)
		}
		return resp
	}

	// Healthy path: the mutation persists and returns 200.
	if resp := postMRT(); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy POST /rest/mrt = %d, want 200", drainStatus(resp))
	} else {
		resp.Body.Close()
	}

	// The disk fills. The first mutation fails server-side (500: the
	// table was accepted but could not be persisted) and the follow-up
	// probe flips the daemon into degraded mode. The counters are
	// process-global, so they are read as deltas from here.
	entries0 := float64(tenantDegradedEntries.With(DefaultTenantID).Value())
	rejects0 := float64(tenantDegradedRejects.With(DefaultTenantID).Value())
	diskFull.Store(true)
	if resp := postMRT(); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("disk-full POST /rest/mrt = %d, want 500", drainStatus(resp))
	} else {
		resp.Body.Close()
	}
	if !d.def.Degraded() {
		t.Fatal("daemon not degraded after a persist failure and failing probe")
	}

	// While degraded: mutations are refused up front with 503 and a
	// Retry-After hint; the handler (and the dead disk) is never hit.
	resp := postMRT()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded POST /rest/mrt = %d, want 503", drainStatus(resp))
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("degraded 503 is missing Retry-After")
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "degraded") {
		t.Fatalf("degraded 503 body %q does not say so", body)
	}

	// Reads keep working: the controller still serves its in-memory
	// state.
	if code := getStatus(t, api+"/rest/mrt"); code != http.StatusOK {
		t.Fatalf("degraded GET /rest/mrt = %d, want 200", code)
	}
	if code := getStatus(t, api+"/rest/summary"); code != http.StatusOK {
		t.Fatalf("degraded GET /rest/summary = %d, want 200", code)
	}

	// /healthz reports degraded (503) with the reason.
	hresp, err := http.Get(obs + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz = %d, want 503", hresp.StatusCode)
	}
	var hz struct{ Status, Reason string }
	if err := json.Unmarshal(hbody, &hz); err != nil {
		t.Fatalf("unparseable /healthz body %q: %v", hbody, err)
	}
	if hz.Status != "degraded" || hz.Reason == "" {
		t.Fatalf("/healthz body = %q, want status degraded with a reason", hbody)
	}

	// The degradation is visible on /metrics.
	fams := scrapeMetrics(t, obs+"/metrics")
	if got := fams[`imcf_tenant_degraded{tenant="home"}`]; got != 1 {
		t.Fatalf("imcf_tenant_degraded{home} = %v, want 1", got)
	}
	if got := fams[`imcf_tenant_degraded_entries_total{tenant="home"}`] - entries0; got != 1 {
		t.Fatalf("degraded entries rose by %v, want 1", got)
	}
	if got := fams[`imcf_tenant_degraded_rejected_total{tenant="home"}`] - rejects0; got < 1 {
		t.Fatalf("degraded rejects rose by %v, want >= 1", got)
	}

	// The operator frees disk space. The next mutation's recovery probe
	// succeeds, degraded mode clears, and the request itself is served.
	diskFull.Store(false)
	if resp := postMRT(); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery POST /rest/mrt = %d, want 200", drainStatus(resp))
	} else {
		resp.Body.Close()
	}
	if d.def.Degraded() {
		t.Fatal("daemon still degraded after the disk recovered")
	}
	if code := getStatus(t, obs+"/healthz"); code != http.StatusOK {
		t.Fatalf("post-recovery /healthz = %d, want 200", code)
	}
	if got := scrapeMetrics(t, obs+"/metrics")[`imcf_tenant_degraded{tenant="home"}`]; got != 0 {
		t.Fatalf("imcf_tenant_degraded{home} = %v after recovery, want 0", got)
	}
}

// TestStatusRecorderForwardsCapabilities: the middleware's recorder
// must not mask the underlying writer's optional interfaces — both a
// direct http.Flusher assertion and the http.NewResponseController
// path (which relies on Unwrap) have to reach the real writer.
func TestStatusRecorderForwardsCapabilities(t *testing.T) {
	rec := httptest.NewRecorder()
	sr := &statusRecorder{ResponseWriter: rec}
	if _, ok := interface{}(sr).(http.Flusher); !ok {
		t.Fatal("statusRecorder does not implement http.Flusher")
	}
	if err := http.NewResponseController(sr).Flush(); err != nil {
		t.Fatalf("Flush through ResponseController: %v", err)
	}
	if !rec.Flushed {
		t.Fatal("flush did not reach the underlying writer")
	}
	if sr.Unwrap() != http.ResponseWriter(rec) {
		t.Fatal("Unwrap does not return the wrapped writer")
	}
}

func getBodyOK(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func drainStatus(resp *http.Response) int {
	resp.Body.Close()
	return resp.StatusCode
}

// TestDaemonCloseClearsDegradedGauges closes a daemon whose tenants are
// both degraded. The degraded gauges are process-global, so a closed
// daemon must zero the ones it set: otherwise they keep reporting a
// daemon that no longer exists, and leak into the next daemon built in
// the same process.
func TestDaemonCloseClearsDegradedGauges(t *testing.T) {
	var diskFull atomic.Bool
	inj := faultfs.InjectorFunc(func(op faultfs.FaultOp) *faultfs.Fault {
		if diskFull.Load() && (op.Op == faultfs.OpWrite || op.Op == faultfs.OpSync) {
			return &faultfs.Fault{Err: syscall.ENOSPC}
		}
		return nil
	})
	d, err := New(Options{
		Addr: "127.0.0.1:0",
		Tenants: []TenantSpec{
			{ID: "gauge-h1", Residence: "flat", Seed: 1},
			{ID: "gauge-h2", Residence: "flat", Seed: 2},
		},
		WeeklyBudgetKWh: 165,
		StoreDir:        "/gauges/store",
		FS:              faultfs.NewFaulty(faultfs.NewMemFS(), inj),
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	d.Start()
	api := "http://" + d.APIAddr()
	mrtJSON := getBodyOK(t, api+"/t/gauge-h1/rest/mrt")

	diskFull.Store(true)
	for _, id := range []string{"gauge-h1", "gauge-h2"} {
		resp, err := http.Post(api+"/t/"+id+"/rest/mrt", "application/json", strings.NewReader(mrtJSON))
		if err != nil {
			t.Fatal(err)
		}
		drainStatus(resp)
		if !d.Tenant(id).Degraded() {
			t.Fatalf("tenant %s not degraded after a failed persist", id)
		}
	}
	if tenantDegradedGauge.With("gauge-h1").Value() != 1 || tenantDegradedGauge.With("gauge-h2").Value() != 1 {
		t.Fatal("degraded gauges not set before Close")
	}

	d.Close() //nolint:errcheck // the store cannot flush to the full disk
	for _, id := range []string{"gauge-h1", "gauge-h2"} {
		if got := tenantDegradedGauge.With(id).Value(); got != 0 {
			t.Errorf("imcf_tenant_degraded{tenant=%q} = %v after Close, want 0", id, got)
		}
	}
}
