package daemon

import (
	"bufio"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/device"
	"github.com/imcf/imcf/internal/simclock"
)

// flakyBinding actuates nothing and fails on demand, so tests can flip
// the daemon's health through real planning cycles.
type flakyBinding struct{ fail atomic.Bool }

func (b *flakyBinding) Apply(device.Descriptor, float64) error {
	if b.fail.Load() {
		return errors.New("injected binding failure")
	}
	return nil
}

func (b *flakyBinding) TurnOff(device.Descriptor) error {
	if b.fail.Load() {
		return errors.New("injected binding failure")
	}
	return nil
}

// TestDaemonE2E boots the full daemon on ephemeral ports, drives one
// simulated day of planning cycles over real HTTP, and checks the
// /metrics exposition stays consistent (considered == executed +
// dropped) and /healthz tracks step outcomes.
func TestDaemonE2E(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2021, time.April, 12, 0, 0, 0, 0, time.UTC))
	binding := &flakyBinding{}
	d, err := New(Options{
		Addr:            "127.0.0.1:0",
		MetricsAddr:     "127.0.0.1:0",
		Residence:       "prototype",
		Seed:            7,
		Mode:            "EP",
		WeeklyBudgetKWh: 165,
		Clock:           clock,
		Binding:         binding,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	d.Start()

	api := "http://" + d.APIAddr()
	obs := "http://" + d.MetricsAddr()

	// Fresh daemon: healthy before any cycle.
	if code := getStatus(t, obs+"/healthz"); code != http.StatusOK {
		t.Fatalf("initial /healthz = %d, want 200", code)
	}

	// Drive a simulated day: one planning cycle per hour.
	for hour := 0; hour < 24; hour++ {
		if code := postStatus(t, api+"/rest/plan/run"); code != http.StatusOK {
			t.Fatalf("hour %d: /rest/plan/run = %d", hour, code)
		}
		clock.Advance(time.Hour)
	}

	fams := scrapeMetrics(t, obs+"/metrics")
	considered := fams["imcf_rules_considered_total"]
	executed := fams["imcf_rules_executed_total"]
	dropped := fams["imcf_rules_dropped_total"]
	if considered == 0 {
		t.Fatal("imcf_rules_considered_total = 0 after a simulated day")
	}
	if executed+dropped != considered {
		t.Fatalf("rule accounting inconsistent: executed %v + dropped %v != considered %v",
			executed, dropped, considered)
	}
	if fams["imcf_controller_steps_total{outcome=\"ok\"}"] < 24 {
		t.Fatalf("ok steps = %v, want >= 24", fams["imcf_controller_steps_total{outcome=\"ok\"}"])
	}
	if fams["imcf_planner_window_seconds_count"] == 0 {
		t.Fatal("imcf_planner_window_seconds histogram recorded nothing")
	}
	if got := fams[`imcf_tenant_healthy{tenant="home"}`]; got != 1 {
		t.Fatalf("imcf_tenant_healthy{home} = %v, want 1", got)
	}

	// A failing binding turns the next cycle into a step error and the
	// daemon unhealthy; a later clean cycle recovers it.
	binding.fail.Store(true)
	clock.Advance(time.Hour)
	if code := postStatus(t, api+"/rest/plan/run"); code != http.StatusInternalServerError {
		t.Fatalf("failing cycle = %d, want 500", code)
	}
	if code := getStatus(t, obs+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after failure = %d, want 503", code)
	}
	if got := scrapeMetrics(t, obs+"/metrics")[`imcf_tenant_healthy{tenant="home"}`]; got != 0 {
		t.Fatalf("imcf_tenant_healthy{home} after failure = %v, want 0", got)
	}

	binding.fail.Store(false)
	clock.Advance(time.Hour)
	if code := postStatus(t, api+"/rest/plan/run"); code != http.StatusOK {
		t.Fatal("recovery cycle failed")
	}
	if code := getStatus(t, obs+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after recovery = %d, want 200", code)
	}

	// The error cycle must not have broken the accounting invariant:
	// the apply stage records its rules even when actuation fails.
	fams = scrapeMetrics(t, obs+"/metrics")
	if fams["imcf_rules_executed_total"]+fams["imcf_rules_dropped_total"] != fams["imcf_rules_considered_total"] {
		t.Fatal("rule accounting inconsistent after error cycle")
	}
	if fams["imcf_controller_steps_total{outcome=\"error\"}"] < 1 {
		t.Fatal("error step not counted")
	}
}

// TestDaemonServesSpans checks the tracer debug endpoint responds.
func TestDaemonServesSpans(t *testing.T) {
	d, err := New(Options{
		Addr:            "127.0.0.1:0",
		MetricsAddr:     "127.0.0.1:0",
		Residence:       "flat",
		WeeklyBudgetKWh: 165,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	d.Start()
	if code := getStatus(t, "http://"+d.MetricsAddr()+"/debug/spans"); code != http.StatusOK {
		t.Fatalf("/debug/spans = %d", code)
	}
}

// TestDaemonRejectsBadOptions covers construction failures.
func TestDaemonRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{Addr: "127.0.0.1:0", Residence: "castle", WeeklyBudgetKWh: 165}); err == nil {
		t.Error("unknown residence accepted")
	}
	if _, err := New(Options{Addr: "127.0.0.1:0", Residence: "flat", Mode: "psychic", WeeklyBudgetKWh: 165}); err == nil {
		t.Error("unknown mode accepted")
	}
	for _, backend := range []string{"etcd", "sharded"} {
		if _, err := New(Options{Addr: "127.0.0.1:0", Residence: "flat", WeeklyBudgetKWh: 165, StoreBackend: backend}); err == nil {
			t.Errorf("unknown store backend %q accepted", backend)
		}
	}
	if _, err := New(Options{Addr: "127.0.0.1:0", Residence: "flat", WeeklyBudgetKWh: 165, JournalCap: -1}); err == nil {
		t.Error("negative journal capacity accepted")
	}
}

// TestDaemonStoreBackends boots the daemon once per storage engine and
// checks the store actually serves: the MRT is persisted through the
// configured Adapter at construction time.
func TestDaemonStoreBackends(t *testing.T) {
	cases := []struct {
		name string
		opts func(o *Options)
	}{
		{"wal", func(o *Options) { o.StoreDir = t.TempDir() }},
		{"mem", func(o *Options) { o.StoreBackend = "mem" }},
		{"disabled", func(o *Options) { o.StoreBackend = "wal" }}, // no dir: no store
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{
				Addr:            "127.0.0.1:0",
				Residence:       "flat",
				WeeklyBudgetKWh: 165,
			}
			tc.opts(&opts)
			d, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close() //nolint:errcheck
			if tc.name == "disabled" {
				if d.def.store != nil {
					t.Fatal("store wired without a directory")
				}
				return
			}
			if d.def.store == nil {
				t.Fatal("store not wired")
			}
			// The controller persists the MRT on construction.
			if _, ok := d.def.store.Get("imcf/mrt"); !ok {
				t.Error("MRT not persisted through the backend")
			}
		})
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func postStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// scrapeMetrics fetches and parses a Prometheus text exposition into
// series name (with labels) → value.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q is not a text exposition", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := cutLast(line)
		if !ok {
			t.Fatalf("unparseable metrics line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		out[name] = f
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// cutLast splits a metrics line at the final space, so label values
// containing spaces stay intact.
func cutLast(line string) (name, value string, ok bool) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return "", "", false
	}
	return line[:i], line[i+1:], true
}

// TestDaemonDebugRoutesOneListener: each debug route is served by one
// listener. /debug/logs sits on the metrics listener beside the other
// /debug/* reads; pprof stays on the opt-in debug listener.
func TestDaemonDebugRoutesOneListener(t *testing.T) {
	d, err := New(Options{
		Addr:            "127.0.0.1:0",
		MetricsAddr:     "127.0.0.1:0",
		DebugAddr:       "127.0.0.1:0",
		Residence:       "prototype",
		WeeklyBudgetKWh: 165,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //nolint:errcheck
	d.Start()
	metricsURL, debugURL := "http://"+d.MetricsAddr(), "http://"+d.DebugAddr()
	getBodyOK(t, metricsURL+"/debug/logs?limit=5")
	getBodyOK(t, debugURL+"/debug/pprof/")
	if code := getStatus(t, debugURL+"/debug/logs"); code != http.StatusNotFound {
		t.Errorf("debug listener GET /debug/logs = %d, want 404", code)
	}
	if code := getStatus(t, metricsURL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("metrics listener GET /debug/pprof/ = %d, want 404", code)
	}
}

// gateBinding actuates nothing; once armed, the first actuation blocks
// until the gate opens, holding a planning cycle in flight.
type gateBinding struct {
	armed   atomic.Bool
	entered chan struct{} // receives once when a cycle blocks
	open    chan struct{} // closed to let the blocked cycle finish
}

func (b *gateBinding) hold() {
	if b.armed.CompareAndSwap(true, false) {
		b.entered <- struct{}{}
		<-b.open
	}
}

func (b *gateBinding) Apply(device.Descriptor, float64) error { b.hold(); return nil }

func (b *gateBinding) TurnOff(device.Descriptor) error { b.hold(); return nil }

// TestDaemonIntervalCyclesEveryTenant drives Options.Interval with a
// SimClock: each Advance by the interval runs one fleet cycle, which
// steps every tenant once. Close returns while the schedule loop is
// parked, and waits for a cycle in flight to finish.
func TestDaemonIntervalCyclesEveryTenant(t *testing.T) {
	boot := func(t *testing.T, b *gateBinding) (*Daemon, *simclock.SimClock) {
		t.Helper()
		clock := simclock.NewSimClock(time.Date(2015, time.January, 10, 20, 0, 0, 0, time.UTC))
		d, err := New(Options{
			Addr: "127.0.0.1:0",
			Tenants: []TenantSpec{
				{ID: "cron-h1", Residence: "prototype", Seed: 1},
				{ID: "cron-h2", Residence: "prototype", Seed: 2},
			},
			WeeklyBudgetKWh: 165,
			Clock:           clock,
			Interval:        time.Hour,
			Binding:         b,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() }) //nolint:errcheck // test cleanup
		return d, clock
	}
	// waitParked returns once the loop waits on the clock again, which
	// it does only after the cycle it ran has returned.
	waitParked := func(t *testing.T, clock *simclock.SimClock) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); clock.PendingWaiters() != 1; {
			if time.Now().After(deadline) {
				t.Fatalf("schedule loop not waiting on the clock (%d waiters)", clock.PendingWaiters())
			}
			time.Sleep(time.Millisecond)
		}
	}
	steps := func(d *Daemon) [2]int {
		return [2]int{
			len(d.Tenant("cron-h1").Controller().History()),
			len(d.Tenant("cron-h2").Controller().History()),
		}
	}
	closed := func(d *Daemon) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			d.Close() //nolint:errcheck // the error is not under test
			close(done)
		}()
		return done
	}

	t.Run("parked", func(t *testing.T) {
		d, clock := boot(t, &gateBinding{})
		waitParked(t, clock)
		for i := 1; i <= 3; i++ {
			clock.Advance(time.Hour)
			waitParked(t, clock)
			if got := steps(d); got != [2]int{i, i} {
				t.Fatalf("after %d intervals, tenants stepped %v times, want %d each", i, got, i)
			}
		}
		select {
		case <-closed(d):
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return while the schedule loop was parked")
		}
	})

	t.Run("in-flight", func(t *testing.T) {
		b := &gateBinding{entered: make(chan struct{}, 1), open: make(chan struct{})}
		d, clock := boot(t, b)
		waitParked(t, clock)
		b.armed.Store(true)
		clock.Advance(time.Hour)
		select {
		case <-b.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("the scheduled cycle never actuated")
		}
		done := closed(d)
		select {
		case <-done:
			t.Fatal("Close returned while a cycle was in flight")
		case <-time.After(50 * time.Millisecond):
		}
		close(b.open)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return after the cycle finished")
		}
		if got := steps(d); got != [2]int{1, 1} {
			t.Fatalf("the cycle Close waited for stepped the tenants %v times, want once each", got)
		}
	})
}
