package daemon

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/simclock"
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
	base := Options{Addr: "127.0.0.1:0", Residence: "flat", WeeklyBudgetKWh: 165, Logf: t.Logf}
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
		Logf:            t.Logf,
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
	if d.Controller() != d.Tenant("h2").Controller() {
		t.Fatal("legacy Controller() is not the default tenant's")
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
		d, err := New(Options{
			Addr: "127.0.0.1:0", Tenants: tenants,
			WeeklyBudgetKWh: 165, StoreDir: t.TempDir(), Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close() //nolint:errcheck // test cleanup
		for _, id := range []string{"h1", "h2"} {
			if _, ok := d.store.Get("t/" + id + "/imcf/mrt"); !ok {
				t.Errorf("shared store missing t/%s/imcf/mrt", id)
			}
			if _, ok := d.Tenant(id).Store().Get("imcf/mrt"); !ok {
				t.Errorf("tenant %s view missing imcf/mrt", id)
			}
		}
		// Cross-tenant invisibility through the views.
		if keys := d.Tenant("h1").Store().Keys(""); len(keys) != 1 || keys[0] != "imcf/mrt" {
			t.Errorf("h1 view keys = %v", keys)
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
		Logf:            t.Logf,
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

// TestDaemonTenantDegradedSharedLog is the tenant-aware degraded-mode
// e2e on the shared WAL. Every tenant writes through one log, so a full
// disk is a shared fault, but degraded mode stays tenant-scoped: a
// tenant degrades when its own mutation fails and its probe confirms
// the fault, the per-tenant metrics say which homes degraded, and each
// tenant heals on its own next mutation once the disk recovers.
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
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck // test cleanup
	d.Start()
	api := "http://" + d.APIAddr()
	obs := "http://" + d.MetricsAddr()

	mrtJSON := getBodyOK(t, api+"/t/h2/rest/mrt")
	post := func(id string) int {
		resp, err := http.Post(api+"/t/"+id+"/rest/mrt", "application/json",
			strings.NewReader(mrtJSON))
		if err != nil {
			t.Fatalf("POST /t/%s/rest/mrt: %v", id, err)
		}
		return drainStatus(resp)
	}

	if code := post("h2"); code != http.StatusOK {
		t.Fatalf("healthy POST = %d, want 200", code)
	}

	// The disk fills: h2's next mutation 500s and trips degraded mode.
	diskFull.Store(true)
	if code := post("h2"); code != http.StatusInternalServerError {
		t.Fatalf("disk-full POST = %d, want 500", code)
	}
	if !d.Tenant("h2").Degraded() {
		t.Fatal("h2 not degraded after persist failure and failing probe")
	}
	if code := post("h2"); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded POST = %d, want 503", code)
	}

	// The neighbor has not written since the fault, so it is not yet
	// degraded, and the daemon-level (default tenant) state stays clear.
	if d.Tenant("h1").Degraded() || d.Degraded() {
		t.Fatal("tenant degraded without a failed mutation of its own")
	}

	fams := scrapeMetrics(t, obs+"/metrics")
	if fams[`imcf_tenant_degraded{tenant="h2"}`] != 1 {
		t.Errorf("imcf_tenant_degraded{h2} = %v, want 1", fams[`imcf_tenant_degraded{tenant="h2"}`])
	}
	if fams[`imcf_tenant_degraded{tenant="h1"}`] == 1 {
		t.Error("imcf_tenant_degraded{h1} = 1, want 0")
	}
	if fams["imcf_daemon_degraded"] != 0 {
		t.Errorf("imcf_daemon_degraded = %v, want 0 (default tenant h1 is healthy)",
			fams["imcf_daemon_degraded"])
	}

	// The neighbor's own mutation then hits the shared log and degrades
	// it too.
	if code := post("h1"); code != http.StatusInternalServerError {
		t.Fatalf("neighbor disk-full POST = %d, want 500", code)
	}
	if !d.Tenant("h1").Degraded() || !d.Degraded() {
		t.Fatal("h1 not degraded after its own persist failure")
	}

	// The disk recovers; each tenant's next mutation probes, heals, and
	// serves, and a tenant stays degraded until it does.
	diskFull.Store(false)
	if code := post("h2"); code != http.StatusOK {
		t.Fatalf("post-recovery POST = %d, want 200", code)
	}
	if d.Tenant("h2").Degraded() {
		t.Fatal("h2 still degraded after recovery")
	}
	if !d.Tenant("h1").Degraded() {
		t.Fatal("h1 healed without a probe of its own")
	}
	if code := post("h1"); code != http.StatusOK {
		t.Fatalf("neighbor post-recovery POST = %d, want 200", code)
	}
	if d.Degraded() {
		t.Fatal("h1 still degraded after recovery")
	}
}
