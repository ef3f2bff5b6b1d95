package metrics

import "testing"

// TestAllocsTraceDisabledSpan pins the disabled-path cost of the
// tracing additions: with metrics globally disabled, ending a
// trace-tagged span and observing an exemplar-carrying sample allocate
// nothing. check.sh gates on this (go test -run AllocsTrace).
func TestAllocsTraceDisabledSpan(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)

	tr := NewTracer(16)
	if n := testing.AllocsPerRun(200, func() {
		tr.StartSpanTrace("alloc.test", nil, "0af7651916cd43dd8448eb211c80319c").End(nil)
	}); n != 0 {
		t.Fatalf("disabled trace-tagged span allocates %v per op, want 0", n)
	}

	h := newHistogram("", "", DurationBuckets)
	if n := testing.AllocsPerRun(200, func() {
		h.ObserveExemplar(0.0042, "0af7651916cd43dd8448eb211c80319c")
	}); n != 0 {
		t.Fatalf("disabled ObserveExemplar allocates %v per op, want 0", n)
	}
}

func BenchmarkTraceDisabled(b *testing.B) {
	SetEnabled(false)
	defer SetEnabled(true)

	b.Run("span", func(b *testing.B) {
		tr := NewTracer(16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.StartSpanTrace("bench", nil, "0af7651916cd43dd8448eb211c80319c").End(nil)
		}
	})
	b.Run("exemplar", func(b *testing.B) {
		h := newHistogram("", "", DurationBuckets)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ObserveExemplar(0.0042, "0af7651916cd43dd8448eb211c80319c")
		}
	})
}
