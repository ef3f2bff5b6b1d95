package metrics

import "testing"

// TestHotPathZeroAllocs is the contract the planner hot path relies on:
// incrementing counters, setting gauges and observing histograms must
// not allocate. If any of these regresses, instrumentation starts
// taxing every plan window and the PR 1 zero-alloc planner guarantee is
// silently broken.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "c")
	f := r.FloatCounter("alloc_kwh", "f")
	g := r.Gauge("alloc_depth", "g")
	h := r.Histogram("alloc_seconds", "h", DurationBuckets)
	child := r.CounterVec("alloc_by_mode_total", "v", "mode").With("EP")

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"FloatCounter.Add", func() { f.Add(0.125) }},
		{"Gauge.Set", func() { g.Set(42) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(0.003) }},
		{"VecChild.Inc", func() { child.Inc() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestSpanZeroAllocsAfterWarmup: once the tracer ring exists, starting
// and ending a span allocates nothing (the ring slot is reused).
func TestSpanZeroAllocsAfterWarmup(t *testing.T) {
	tr := NewTracer(8)
	h := newHistogram("", "", nil)
	fn := func() { tr.StartSpan("hot", h).End(nil) }
	fn() // warm up
	if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
		t.Errorf("span start/end: %v allocs/op, want 0", allocs)
	}
}
