package metrics

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// DurationBuckets are the default upper bounds (seconds) for latency
// histograms: 1µs to 2.5s, roughly logarithmic. They cover a warm
// controller step (about 11µs) and the planner's per-window spread
// from the 6-rule flat to the 600-rule dorms dataset.
var DurationBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5,
}

// Histogram is a fixed-bucket histogram. Observe is lock-free and
// allocation-free: one atomic add on the bucket, one on the count, and
// a CAS loop on the float sum. Buckets are cumulative only at
// exposition time; internally each slot counts its own interval.
type Histogram struct {
	name   string
	help   string
	bounds []float64       // ascending upper bounds; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64

	// exemplars holds each bucket's most recent trace-tagged sample
	// (len(bounds)+1, lazily allocated on the first ObserveExemplar).
	// It is off the Observe hot path: only trace-carrying call sites
	// (one per HTTP-driven planning cycle) pay the mutex.
	exMu      sync.Mutex
	exemplars []exemplar
}

// exemplar is one bucket's most recent trace-tagged observation.
type exemplar struct {
	value float64
	trace string
}

// newHistogram builds a histogram, copying and validating the bounds.
func newHistogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DurationBuckets
	}
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s buckets not strictly ascending at %d", name, i))
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// bucketIndex returns the index of the bucket v falls in, the +Inf
// bucket included. Linear scan: bucket counts are small (≤ ~20) and the
// scan is branch-predictable, beating binary search at this size.
//
//imcf:noalloc
func (h *Histogram) bucketIndex(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one sample.
//
//imcf:noalloc
func (h *Histogram) Observe(v float64) {
	if disabled.Load() {
		return
	}
	i := h.bucketIndex(v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveExemplar records one sample and, when trace is non-empty,
// stores (v, trace) as the sample's bucket exemplar — the link from a
// latency outlier to the causal trace that produced it, served at
// /debug/exemplars. Pass a real trace ID or use Observe: a statically
// empty trace literal is a metrics-hygiene lint finding.
func (h *Histogram) ObserveExemplar(v float64, trace string) {
	h.Observe(v)
	if trace == "" || disabled.Load() {
		return
	}
	i := h.bucketIndex(v)
	h.exMu.Lock()
	if h.exemplars == nil {
		h.exemplars = make([]exemplar, len(h.bounds)+1)
	}
	h.exemplars[i] = exemplar{value: v, trace: trace}
	h.exMu.Unlock()
}

// Exemplar is one bucket's exemplar as exposed on /debug/exemplars.
// LE is the bucket's upper bound rendered like the exposition format
// ("+Inf" for the overflow bucket).
type Exemplar struct {
	LE    string  `json:"le"`
	Value float64 `json:"value"`
	Trace string  `json:"trace"`
}

// Exemplars returns the histogram's bucket exemplars, lowest bound
// first, omitting buckets that never saw a trace-tagged observation.
func (h *Histogram) Exemplars() []Exemplar {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	var out []Exemplar
	for i := range h.exemplars {
		ex := h.exemplars[i]
		if ex.trace == "" {
			continue
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		out = append(out, Exemplar{LE: le, Value: ex.value, Trace: ex.trace})
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) writeTo(w *bufio.Writer) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		w.WriteString(h.name)         //nolint:errcheck
		w.WriteString(`_bucket{le="`) //nolint:errcheck
		writeFloat(w, b)
		fmt.Fprintf(w, "\"} %d\n", cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	w.WriteString(h.name)  //nolint:errcheck
	w.WriteString("_sum ") //nolint:errcheck
	writeFloat(w, h.Sum())
	w.WriteByte('\n') //nolint:errcheck
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.count.Load())
}
