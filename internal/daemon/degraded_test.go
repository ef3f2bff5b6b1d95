package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
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
	entries0 := float64(storeDegradedEntries.Value())
	rejects0 := float64(tenantDegradedRejects.With(DefaultTenantID).Value())
	diskFull.Store(true)
	if resp := postMRT(); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("disk-full POST /rest/mrt = %d, want 500", drainStatus(resp))
	} else {
		resp.Body.Close()
	}
	if d.storeFault() == nil {
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
	if got := fams["imcf_store_degraded"]; got != 1 {
		t.Fatalf("imcf_store_degraded = %v, want 1", got)
	}
	if got := fams["imcf_store_degraded_entries_total"] - entries0; got != 1 {
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
	if d.storeFault() != nil {
		t.Fatal("daemon still degraded after the disk recovered")
	}
	if code := getStatus(t, obs+"/healthz"); code != http.StatusOK {
		t.Fatalf("post-recovery /healthz = %d, want 200", code)
	}
	if got := scrapeMetrics(t, obs+"/metrics")["imcf_store_degraded"]; got != 0 {
		t.Fatalf("imcf_store_degraded = %v after recovery, want 0", got)
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

// TestDaemonCloseClearsDegradedGauges closes a daemon whose store is
// degraded, with writes from both tenants refused. The degraded gauge
// is process-global, so a closed daemon must zero it: otherwise it
// keeps reporting a daemon that no longer exists, and leaks into the
// next daemon built in the same process.
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
		if d.storeFault() == nil {
			t.Fatalf("store not degraded after tenant %s's failed persist", id)
		}
	}
	if storeDegradedGauge.Value() != 1 {
		t.Fatal("degraded gauge not set before Close")
	}

	d.Close() //nolint:errcheck // the store cannot flush to the full disk
	if got := storeDegradedGauge.Value(); got != 0 {
		t.Errorf("imcf_store_degraded = %v after Close, want 0", got)
	}
}

// TestDaemonDegradedConcurrentTenants races mutations from both tenants
// through a disk fault and through the recovery. The store's degraded
// state is shared, so however many failed writes and probes race to
// degrade it, it enters degraded mode once; and every mutation after
// the disk recovers is served.
func TestDaemonDegradedConcurrentTenants(t *testing.T) {
	var diskFull atomic.Bool
	inj := faultfs.InjectorFunc(func(op faultfs.FaultOp) *faultfs.Fault {
		if diskFull.Load() && (op.Op == faultfs.OpWrite || op.Op == faultfs.OpSync) {
			return &faultfs.Fault{Err: syscall.ENOSPC}
		}
		return nil
	})
	ids := []string{"race-h1", "race-h2"}
	d, err := New(Options{
		Addr: "127.0.0.1:0",
		Tenants: []TenantSpec{
			{ID: ids[0], Residence: "flat", Seed: 1},
			{ID: ids[1], Residence: "flat", Seed: 2},
		},
		WeeklyBudgetKWh: 165,
		StoreDir:        "/race/store",
		FS:              faultfs.NewFaulty(faultfs.NewMemFS(), inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	d.Start()
	api := "http://" + d.APIAddr()
	mrtJSON := getBodyOK(t, api+"/t/race-h1/rest/mrt")

	// burst posts perTenant mutations to every tenant at once and
	// returns the status codes.
	const perTenant = 8
	burst := func() []int {
		var wg sync.WaitGroup
		codes := make(chan int, perTenant*len(ids))
		for _, id := range ids {
			for range perTenant {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Post(api+"/t/"+id+"/rest/mrt", "application/json", strings.NewReader(mrtJSON))
					if err != nil {
						t.Error(err)
						return
					}
					codes <- drainStatus(resp)
				}()
			}
		}
		wg.Wait()
		close(codes)
		var out []int
		for code := range codes {
			out = append(out, code)
		}
		return out
	}

	entries0 := storeDegradedEntries.Value()
	diskFull.Store(true)
	for _, code := range burst() {
		if code != http.StatusInternalServerError && code != http.StatusServiceUnavailable {
			t.Errorf("disk-full POST = %d, want 500 or 503", code)
		}
	}
	if d.storeFault() == nil {
		t.Fatal("store not degraded after a burst of failed writes")
	}
	if got := storeDegradedEntries.Value() - entries0; got != 1 {
		t.Fatalf("store entered degraded mode %d times, want once", got)
	}

	diskFull.Store(false)
	for _, code := range burst() {
		if code != http.StatusOK {
			t.Errorf("post-recovery POST = %d, want 200", code)
		}
	}
	if d.storeFault() != nil || storeDegradedGauge.Value() != 0 {
		t.Fatal("store still degraded after the disk recovered")
	}
}
