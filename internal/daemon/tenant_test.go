package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/store"
)

func TestParseTenantID(t *testing.T) {
	valid := []string{
		"home", "h1", "a", "A", "9",
		"flat-12.b_3", "x.y.z",
		strings.Repeat("a", 64),
	}
	for _, id := range valid {
		if err := ParseTenantID(id); err != nil {
			t.Errorf("ParseTenantID(%q) = %v, want nil", id, err)
		}
	}
	invalid := []string{
		"", ".", "..", ".hidden", "-x", "_x",
		"a/b", "../a", "a/..", `a\b`, "a b", "a\tb", "a\x00b",
		"café", "家", "a%2fb?" /* '%' and '?' */, "a\nb",
		strings.Repeat("a", 65),
	}
	for _, id := range invalid {
		if err := ParseTenantID(id); err == nil {
			t.Errorf("ParseTenantID(%q) accepted a hostile ID", id)
		}
	}
}

func TestDaemonRejectsBadTenants(t *testing.T) {
	base := Options{Addr: "127.0.0.1:0", Residence: "flat", WeeklyBudgetKWh: 165}
	bad := base
	bad.Tenants = []TenantSpec{{ID: "../etc"}}
	if _, err := New(bad); err == nil {
		t.Error("hostile tenant ID accepted")
	}
	dup := base
	dup.Tenants = []TenantSpec{{ID: "h1"}, {ID: "h1"}}
	if _, err := New(dup); err == nil {
		t.Error("duplicate tenant ID accepted")
	}
	res := base
	res.Tenants = []TenantSpec{{ID: "h1", Residence: "castle"}}
	if _, err := New(res); err == nil {
		t.Error("unknown tenant residence accepted")
	}
	mode := base
	mode.Tenants = []TenantSpec{{ID: "h1", Mode: "psychic"}}
	if _, err := New(mode); err == nil {
		t.Error("unknown tenant mode accepted")
	}
}

// TestDaemonMultiTenantRouting boots a three-home daemon and checks the
// tenant-scoped REST surface: /t/{home}/... reaches the named tenant,
// legacy routes alias the default (first-declared) tenant, unknown or
// hostile homes 404, and each tenant's journal only holds its own
// cycles.
func TestDaemonMultiTenantRouting(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2021, time.April, 12, 0, 0, 0, 0, time.UTC))
	d, err := New(Options{
		Addr:        "127.0.0.1:0",
		MetricsAddr: "127.0.0.1:0",
		Tenants: []TenantSpec{
			{ID: "h2", Residence: "flat", Seed: 2},
			{ID: "h1", Residence: "prototype", Seed: 1},
			{ID: "h3", Residence: "flat", Seed: 3},
		},
		Mode:            "EP",
		WeeklyBudgetKWh: 165,
		StoreBackend:    "mem",
		Clock:           clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	d.Start()
	api := "http://" + d.APIAddr()
	obs := "http://" + d.MetricsAddr()

	if got, want := d.Tenants(), []string{"h1", "h2", "h3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Tenants() = %v, want %v", got, want)
	}
	if d.Tenant("h2") == nil || d.Tenant("nope") != nil {
		t.Fatal("Tenant lookup broken")
	}

	// Each tenant plans over its own route, across a simulated morning
	// so the planner sees active rules and journals verdicts.
	for hour := 0; hour < 8; hour++ {
		for _, id := range []string{"h1", "h2", "h3"} {
			if code := postStatus(t, api+"/t/"+id+"/rest/plan/run"); code != http.StatusOK {
				t.Fatalf("hour %d: /t/%s/rest/plan/run = %d", hour, id, code)
			}
		}
		clock.Advance(time.Hour)
	}
	// The legacy route aliases the default tenant (first declared: h2).
	if code := postStatus(t, api+"/rest/plan/run"); code != http.StatusOK {
		t.Fatalf("legacy /rest/plan/run = %d", code)
	}
	if n1, n2 := len(d.Tenant("h1").Controller().History()), len(d.Tenant("h2").Controller().History()); n2 != n1+1 {
		t.Fatalf("legacy route did not step the default tenant: h1 %d steps, h2 %d", n1, n2)
	}

	// Unknown homes 404 without touching any tenant.
	if code := postStatus(t, api+"/t/nope/rest/plan/run"); code != http.StatusNotFound {
		t.Errorf("POST /t/nope/rest/plan/run = %d, want 404", code)
	}
	// Traversal-style paths are either cleaned away by URL
	// normalization or rejected; whatever the mechanism, they must
	// never plan as a tenant.
	for _, path := range []string{
		"/t/../rest/plan/run",
		"/t/%2e%2e/rest/plan/run",
		"/t/h1%2f../rest/plan/run",
		"/t/h1/../h2/rest/plan/run",
	} {
		if code := postStatus(t, api+path); code == http.StatusOK {
			t.Errorf("POST %s = 200; hostile path reached a tenant", path)
		}
	}

	// Journal isolation: h2 stepped twice (tenant route + legacy alias),
	// the others once; every event in a tenant's ring is its own.
	if n1, n2 := d.Tenant("h1").Journal().Len(), d.Tenant("h2").Journal().Len(); n1 == 0 || n2 == 0 {
		t.Fatalf("journals empty after cycles: h1=%d h2=%d", n1, n2)
	}
	var evs []journal.Event
	if err := json.Unmarshal([]byte(getBodyOK(t, obs+"/debug/decisions?tenant=h1")), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("/debug/decisions?tenant=h1 returned nothing")
	}
	for _, ev := range evs {
		if ev.Tenant != "h1" {
			t.Fatalf("tenant-filtered event decorated %q", ev.Tenant)
		}
	}
	var all []journal.Event
	if err := json.Unmarshal([]byte(getBodyOK(t, obs+"/debug/decisions")), &all); err != nil {
		t.Fatal(err)
	}
	tenantsSeen := map[string]bool{}
	for _, ev := range all {
		tenantsSeen[ev.Tenant] = true
	}
	for _, id := range []string{"h1", "h2", "h3"} {
		if !tenantsSeen[id] {
			t.Errorf("merged /debug/decisions is missing tenant %s", id)
		}
	}

	// The fleet gauge reports the fleet size.
	if fams := scrapeMetrics(t, obs+"/metrics"); fams["imcf_fleet_tenants"] != 3 {
		t.Errorf("imcf_fleet_tenants = %v, want 3", fams["imcf_fleet_tenants"])
	}
}

// TestDaemonMultiTenantStores pins the namespace layout: tenants route
// through one shared store under "t/<id>/" prefixes.
func TestDaemonMultiTenantStores(t *testing.T) {
	tenants := []TenantSpec{
		{ID: "h1", Residence: "flat", Seed: 1},
		{ID: "h2", Residence: "flat", Seed: 2},
	}
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		d, err := New(Options{
			Addr: "127.0.0.1:0", Tenants: tenants,
			WeeklyBudgetKWh: 165, StoreDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close() //nolint:errcheck // test cleanup
		for _, id := range []string{"h1", "h2"} {
			if _, ok := d.Tenant(id).Store().Get("imcf/mrt"); !ok {
				t.Errorf("tenant %s view missing imcf/mrt", id)
			}
		}
		// Cross-tenant invisibility through the views.
		if keys := d.Tenant("h1").Store().Keys(""); len(keys) != 1 || keys[0] != "imcf/mrt" {
			t.Errorf("h1 view keys = %v", keys)
		}

		// On disk, the one shared store holds each tenant's keys under
		// its prefix.
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		db, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close() //nolint:errcheck // test cleanup
		for _, id := range []string{"h1", "h2"} {
			if _, ok := db.Get("t/" + id + "/imcf/mrt"); !ok {
				t.Errorf("shared store missing t/%s/imcf/mrt", id)
			}
		}
	})
}

// TestDaemonFleetCycle drives explicit fleet cycles and checks every
// tenant steps each cycle, concurrently when workers allow.
func TestDaemonFleetCycle(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2021, time.April, 12, 0, 0, 0, 0, time.UTC))
	d, err := New(Options{
		Addr: "127.0.0.1:0",
		Tenants: []TenantSpec{
			{ID: "h1", Residence: "flat", Seed: 1},
			{ID: "h2", Residence: "flat", Seed: 2},
			{ID: "h3", Residence: "prototype", Seed: 3},
			{ID: "h4", Residence: "flat", Seed: 4},
		},
		FleetWorkers:    4,
		WeeklyBudgetKWh: 165,
		Clock:           clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup

	if d.Fleet().Len() != 4 || d.Fleet().Workers() != 4 {
		t.Fatalf("fleet = %d tenants × %d workers", d.Fleet().Len(), d.Fleet().Workers())
	}
	for cycle := 0; cycle < 3; cycle++ {
		if err := d.Fleet().Cycle(context.Background()); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		clock.Advance(time.Hour)
	}
	for _, id := range d.Tenants() {
		if got := len(d.Tenant(id).Controller().History()); got != 3 {
			t.Errorf("tenant %s steps = %d, want 3", id, got)
		}
	}
}

// TestDaemonConcurrentPlanRunAndFleetCycle steps one tenant from two
// entry points at once: POST /t/h1/rest/plan/run and Fleet().Cycle.
// Steps on one controller are serialized, so under -race the planner,
// the step scratch and the carry ledger see no data race, and every
// step of both paths lands in the tenant's summary.
func TestDaemonConcurrentPlanRunAndFleetCycle(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2021, time.January, 4, 19, 0, 0, 0, time.UTC))
	d, err := New(Options{
		Addr:            "127.0.0.1:0",
		Tenants:         []TenantSpec{{ID: "h1", Residence: "house", Seed: 1}},
		WeeklyBudgetKWh: 40,
		StoreBackend:    "mem",
		Clock:           clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	d.Start()
	url := "http://" + d.APIAddr() + "/t/h1/rest/plan/run"

	const rounds = 40
	errs := make(chan error, 2*rounds)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := http.Post(url, "application/json", strings.NewReader("{}"))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("POST plan/run = %d", resp.StatusCode)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := d.Fleet().Cycle(context.Background()); err != nil {
				errs <- err
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	ctrl := d.Tenant("h1").Controller()
	if got := ctrl.Summary().Steps; got != 2*rounds {
		t.Errorf("steps = %d, want %d", got, 2*rounds)
	}
	if _, ok := ctrl.LastStep(); !ok {
		t.Error("no last step after concurrent steps")
	}
}

// TestDaemonTenantDegradedSharedLog is the degraded-mode e2e on the
// shared WAL. Every tenant writes through one log, so a fault that one
// tenant confirms degrades them all: once h2's failed mutation and
// probe have degraded the store, h1's next mutation is refused with 503
// and Retry-After without running, /healthz (served for the default
// tenant, h1) reports degraded, and one successful recovery probe, here
// from h2, heals both.
func TestDaemonTenantDegradedSharedLog(t *testing.T) {
	mem := faultfs.NewMemFS()
	var diskFull atomic.Bool
	inj := faultfs.InjectorFunc(func(op faultfs.FaultOp) *faultfs.Fault {
		if !diskFull.Load() {
			return nil
		}
		if op.Op == faultfs.OpWrite || op.Op == faultfs.OpSync {
			return &faultfs.Fault{Err: syscall.ENOSPC}
		}
		return nil
	})

	d, err := New(Options{
		Addr:        "127.0.0.1:0",
		MetricsAddr: "127.0.0.1:0",
		Tenants: []TenantSpec{
			{ID: "h1", Residence: "flat", Seed: 1},
			{ID: "h2", Residence: "flat", Seed: 2},
		},
		WeeklyBudgetKWh: 165,
		StoreDir:        "/fleet/store",
		FS:              faultfs.NewFaulty(mem, inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	d.Start()
	api := "http://" + d.APIAddr()
	obs := "http://" + d.MetricsAddr()

	mrtJSON := getBodyOK(t, api+"/t/h2/rest/mrt")
	post := func(id string) *http.Response {
		t.Helper()
		resp, err := http.Post(api+"/t/"+id+"/rest/mrt", "application/json",
			strings.NewReader(mrtJSON))
		if err != nil {
			t.Fatalf("POST /t/%s/rest/mrt: %v", id, err)
		}
		return resp
	}
	healthz := func() string {
		t.Helper()
		resp, err := http.Get(obs + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hz struct{ Status string }
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %s", resp.StatusCode, hz.Status)
	}

	if code := drainStatus(post("h2")); code != http.StatusOK {
		t.Fatalf("healthy POST = %d, want 200", code)
	}

	// The disk fills: h2's next mutation 500s, and its probe confirms
	// the fault and degrades the store.
	rejects0 := tenantDegradedRejects.With("h1").Value()
	diskFull.Store(true)
	if code := drainStatus(post("h2")); code != http.StatusInternalServerError {
		t.Fatalf("disk-full POST = %d, want 500", code)
	}
	if code := drainStatus(post("h2")); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded POST = %d, want 503", code)
	}

	// h1 has not written since the fault, yet its next mutation is
	// refused up front: the handler never runs, so it cannot 500.
	resp := post("h1")
	if code := drainStatus(resp); code != http.StatusServiceUnavailable {
		t.Fatalf("neighbor POST on the degraded store = %d, want 503", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("neighbor's 503 is missing Retry-After")
	}
	if got := tenantDegradedRejects.With("h1").Value() - rejects0; got != 1 {
		t.Fatalf("h1 degraded rejects rose by %v, want 1", got)
	}
	if got := healthz(); got != "503 degraded" {
		t.Fatalf("/healthz = %s while the store is degraded, want 503 degraded", got)
	}
	if got := scrapeMetrics(t, obs+"/metrics")["imcf_store_degraded"]; got != 1 {
		t.Fatalf("imcf_store_degraded = %v, want 1", got)
	}

	// The disk recovers. h2's next mutation probes, heals the store and
	// is served; h1 is healed by that one probe, before it writes again.
	diskFull.Store(false)
	if code := drainStatus(post("h2")); code != http.StatusOK {
		t.Fatalf("post-recovery POST = %d, want 200", code)
	}
	if got := healthz(); got != "200 ok" {
		t.Fatalf("/healthz = %s after h2's recovery probe, want 200 ok", got)
	}
	if got := scrapeMetrics(t, obs+"/metrics")["imcf_store_degraded"]; got != 0 {
		t.Fatalf("imcf_store_degraded = %v after recovery, want 0", got)
	}
	if code := drainStatus(post("h1")); code != http.StatusOK {
		t.Fatalf("neighbor post-recovery POST = %d, want 200", code)
	}
}

// TestDaemonEveryTenantReportsHealth checks that /metrics carries an
// imcf_tenant_healthy series for every hosted home, the default
// (first-listed) tenant included, and that each series follows its own
// tenant's planning outcome.
func TestDaemonEveryTenantReportsHealth(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2021, time.April, 13, 1, 0, 0, 0, time.UTC))
	binding := &flakyBinding{}
	d, err := New(Options{
		Addr:        "127.0.0.1:0",
		MetricsAddr: "127.0.0.1:0",
		Tenants: []TenantSpec{
			{ID: "health-h1", Residence: "prototype", Seed: 1},
			{ID: "health-h2", Residence: "prototype", Seed: 2},
		},
		WeeklyBudgetKWh: 165,
		Clock:           clock,
		Binding:         binding,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	d.Start()
	obs := "http://" + d.MetricsAddr()

	fams := scrapeMetrics(t, obs+"/metrics")
	for _, id := range []string{"health-h1", "health-h2"} {
		key := `imcf_tenant_healthy{tenant="` + id + `"}`
		if got, ok := fams[key]; !ok || got != 1 {
			t.Errorf("%s = %v (present %v), want 1", key, got, ok)
		}
	}

	// A failed cycle of the default tenant clears its series only.
	binding.fail.Store(true)
	if _, err := d.Tenant("health-h1").Controller().Step(); err == nil {
		t.Fatal("step with a failing binding succeeded")
	}
	fams = scrapeMetrics(t, obs+"/metrics")
	if got := fams[`imcf_tenant_healthy{tenant="health-h1"}`]; got != 0 {
		t.Errorf("health-h1 after a failed cycle = %v, want 0", got)
	}
	if got := fams[`imcf_tenant_healthy{tenant="health-h2"}`]; got != 1 {
		t.Errorf("health-h2 after its neighbour failed = %v, want 1", got)
	}
}
