package metrics

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func render(r *Registry) string {
	var sb strings.Builder
	w := bufio.NewWriter(&sb)
	r.WritePrometheus(w)
	w.Flush()
	return sb.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests.")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter value = %d, want 3", got)
	}
	f := r.FloatCounter("test_energy_kwh", "Energy.")
	f.Add(1.5)
	f.Add(0.25)
	f.Add(-4) // ignored: counters never decrease
	if got := f.Value(); got != 1.75 {
		t.Fatalf("float counter = %v, want 1.75", got)
	}
	g := r.Gauge("test_depth", "Depth.")
	g.Set(10)
	g.Add(-3.5)
	if got := g.Value(); got != 6.5 {
		t.Fatalf("gauge = %v, want 6.5", got)
	}

	out := render(r)
	for _, want := range []string{
		"# HELP test_requests_total Requests.",
		"# TYPE test_requests_total counter",
		"test_requests_total 3",
		"# TYPE test_energy_kwh counter",
		"test_energy_kwh 1.75",
		"# TYPE test_depth gauge",
		"test_depth 6.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name.
	if strings.Index(out, "test_depth") > strings.Index(out, "test_requests_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "a")
	b := r.Counter("dup_total", "ignored on re-register")
	if a != b {
		t.Fatal("re-registering the same counter name must return the same collector")
	}
	h1 := r.Histogram("dup_seconds", "h", nil)
	h2 := r.Histogram("dup_seconds", "h", []float64{1, 2})
	if h1 != h2 {
		t.Fatal("re-registering the same histogram name must return the same collector")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a histogram name as a counter must panic")
		}
	}()
	r.Counter("dup_seconds", "type clash")
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_by_mode_total", "By mode.", "mode")
	ep := v.With("EP")
	ep2 := v.With("EP")
	if ep != ep2 {
		t.Fatal("With must cache children")
	}
	ep.Add(4)
	v.With("IFTTT").Inc()
	out := render(r)
	if !strings.Contains(out, `test_by_mode_total{mode="EP"} 4`) ||
		!strings.Contains(out, `test_by_mode_total{mode="IFTTT"} 1`) {
		t.Errorf("vec exposition wrong:\n%s", out)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_served_total", "Served.").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	buf := new(strings.Builder)
	if _, err := bufio.NewReader(resp.Body).WriteTo(buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "test_served_total 1") {
		t.Errorf("handler body:\n%s", buf.String())
	}
}

func TestSetEnabledGatesMutations(t *testing.T) {
	defer SetEnabled(true)
	r := NewRegistry()
	c := r.Counter("test_gated_total", "g")
	h := r.Histogram("test_gated_seconds", "g", nil)
	SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled() should be false after SetEnabled(false)")
	}
	c.Inc()
	h.Observe(1)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled metrics mutated: counter=%d hist=%d", c.Value(), h.Count())
	}
	SetEnabled(true)
	c.Inc()
	h.Observe(1)
	if c.Value() != 1 || h.Count() != 1 {
		t.Fatalf("re-enabled metrics did not record: counter=%d hist=%d", c.Value(), h.Count())
	}
}

func TestTracerRingAndHandler(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		sp := tr.StartSpan("cycle", nil)
		var err error
		if i == 5 {
			err = errors.New("boom")
		}
		if d := sp.End(err); d < 0 {
			t.Fatalf("negative span duration %v", d)
		}
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring keeps %d spans, want 4", len(recent))
	}
	if recent[3].Err != "boom" {
		t.Errorf("last span error = %q, want boom", recent[3].Err)
	}
	// Oldest-first ordering.
	for i := 1; i < len(recent); i++ {
		if recent[i].Start.Before(recent[i-1].Start) {
			t.Errorf("spans out of order at %d", i)
		}
	}
	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []SpanRecord
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("handler returned %d spans, want 4", len(got))
	}
}

func TestSpanObservesHistogram(t *testing.T) {
	h := newHistogram("", "", nil)
	sp := StartSpan("timed", h)
	time.Sleep(time.Millisecond)
	sp.End(nil)
	if h.Count() != 1 {
		t.Fatalf("histogram count = %d, want 1", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("histogram sum = %v, want > 0", h.Sum())
	}
}

func TestHealthTransitions(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_healthy", "h")
	h := NewHealth(g)
	if ok, _ := h.Healthy(); !ok {
		t.Fatal("new health must start healthy")
	}
	if g.Value() != 1 {
		t.Fatalf("gauge = %v, want 1", g.Value())
	}

	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthy status = %d, want 200", resp.StatusCode)
	}

	h.SetError(errors.New("planner exploded"))
	if ok, reason := h.Healthy(); ok || reason != "planner exploded" {
		t.Fatalf("after SetError: ok=%v reason=%q", ok, reason)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %v, want 0", g.Value())
	}
	resp, err = srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 503 || body["reason"] != "planner exploded" {
		t.Fatalf("unhealthy response: %d %v", resp.StatusCode, body)
	}

	h.SetError(nil) // nil error means healthy
	if ok, _ := h.Healthy(); !ok {
		t.Fatal("SetError(nil) must restore health")
	}
	if g.Value() != 1 {
		t.Fatalf("gauge = %v, want 1", g.Value())
	}
}

func TestDefaultFamiliesRegistered(t *testing.T) {
	out := render(Default())
	for _, fam := range []string{
		"imcf_planner_window_seconds_bucket",
		"imcf_planner_window_seconds_sum",
		"imcf_rules_considered_total",
		"imcf_rules_executed_total",
		"imcf_rules_dropped_total",
		"imcf_energy_consumed_kwh",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("default registry missing family %s", fam)
		}
	}
}
