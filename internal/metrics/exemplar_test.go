package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestObserveExemplar(t *testing.T) {
	h := newHistogram("", "", []float64{0.01, 0.1, 1})

	h.ObserveExemplar(0.005, "trace-a") // bucket 0
	h.ObserveExemplar(0.05, "")         // counted, no exemplar
	h.ObserveExemplar(5, "trace-inf")   // +Inf bucket
	h.ObserveExemplar(0.007, "trace-b") // bucket 0 again, replaces trace-a

	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("Exemplars = %+v, want 2 buckets", ex)
	}
	if ex[0].LE != "0.01" || ex[0].Trace != "trace-b" || ex[0].Value != 0.007 {
		t.Fatalf("bucket 0 exemplar = %+v", ex[0])
	}
	if ex[1].LE != "+Inf" || ex[1].Trace != "trace-inf" {
		t.Fatalf("+Inf exemplar = %+v", ex[1])
	}

	// An exemplar-free histogram returns nothing.
	if got := newHistogram("", "", nil).Exemplars(); got != nil {
		t.Fatalf("fresh histogram Exemplars = %+v", got)
	}
}

func TestRegistryExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("imcf_test_exemplar_seconds", "test family", []float64{0.01, 1})
	r.Counter("imcf_test_plain_total", "no exemplars here")
	h.ObserveExemplar(0.002, "trace-x")

	got := r.Exemplars()
	if len(got) != 1 {
		t.Fatalf("registry exemplars = %+v", got)
	}
	if ex := got["imcf_test_exemplar_seconds"]; len(ex) != 1 || ex[0].Trace != "trace-x" {
		t.Fatalf("family exemplars = %+v", ex)
	}

	// The text exposition must stay exemplar-free: no trace ID leaks
	// onto /metrics lines (the scrape parser splits at the last space).
	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	if len(body) == 0 || strings.Contains(body, "trace-x") {
		t.Fatalf("text exposition leaked exemplars:\n%s", body)
	}
}

func TestExemplarHandler(t *testing.T) {
	PlannerWindowSeconds.ObserveExemplar(0.003, "trace-handler-test")
	rr := httptest.NewRecorder()
	ExemplarHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/exemplars", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	var got map[string][]Exemplar
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	found := false
	for _, ex := range got["imcf_planner_window_seconds"] {
		if ex.Trace == "trace-handler-test" {
			found = true
		}
	}
	if !found {
		t.Fatalf("exemplar missing from handler output: %+v", got)
	}
}
