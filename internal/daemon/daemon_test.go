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
		Logf:            t.Logf,
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
		Logf:            t.Logf,
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
	if _, err := New(Options{Addr: "127.0.0.1:0", Residence: "flat", WeeklyBudgetKWh: 165, StreamRingCap: -1}); err == nil {
		t.Error("negative stream ring capacity accepted")
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
				Logf:            t.Logf,
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
		Logf:            t.Logf,
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
