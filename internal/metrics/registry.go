// Package metrics is the observability layer of the IMCF serving path:
// a stdlib-only, race-clean metrics registry — atomic counters, gauges
// and fixed-bucket histograms with Prometheus text exposition — plus
// lightweight span-style tracing and a health state for /healthz.
//
// The paper evaluates IMCF on convenience error (F_CE), energy (F_E)
// and planner time (F_T); this package makes those same quantities
// observable on a *running* controller: every layer of the serving
// path (planner, firewall, controller, relay, client, store,
// persistence) registers `imcf_*` metric families against the Default
// registry, and the daemon exposes them at GET /metrics.
//
// Hot-path contract: Counter.Inc/Add, FloatCounter.Add, Gauge.Set and
// Histogram.Observe perform zero heap allocations and take no locks —
// only atomic operations — so instrumentation on the planner hot path
// is free when idle and race-clean under load. This is enforced by a
// testing.AllocsPerRun guard in the package tests.
package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// disabled gates every mutation of every metric in the process. It is
// off (metrics enabled) by default; simulation equivalence tests flip
// it to prove instrumentation does not perturb results.
var disabled atomic.Bool

// SetEnabled globally enables or disables metric mutations. Reads
// (exposition, Value) always work. The default is enabled.
func SetEnabled(on bool) { disabled.Store(!on) }

// Enabled reports whether metric mutations are currently recorded.
func Enabled() bool { return !disabled.Load() }

// collector is one registered metric family.
type collector interface {
	// metricName is the family name ("imcf_rules_dropped_total").
	metricName() string
	// metricType is the Prometheus TYPE ("counter", "gauge", "histogram").
	metricType() string
	// metricHelp is the one-line HELP text.
	metricHelp() string
	// writeTo appends the family's sample lines in exposition format.
	writeTo(w *bufio.Writer)
}

// Registry holds metric families. The zero value is not usable;
// construct with NewRegistry or use Default. All methods are safe for
// concurrent use; registration is GetOrCreate — registering a name that
// already exists returns the existing collector, so independent
// packages may share a family (e.g. the controller and the simulator
// both observe planner time in imcf_planner_window_seconds).
type Registry struct {
	mu     sync.RWMutex
	byName map[string]collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]collector)}
}

// defaultRegistry is the process-wide registry behind Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the instrumented IMCF
// packages register against and that the daemon exposes at /metrics.
func Default() *Registry { return defaultRegistry }

// getOrCreate returns the collector registered under name, creating it
// with mk when absent. A name registered with a different concrete type
// panics: that is a programming error, caught at package init.
func (r *Registry) getOrCreate(name string, mk func() collector) collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.byName[name]; ok {
		return c
	}
	c := mk()
	r.byName[name] = c
	return c
}

// Counter registers (or returns the existing) integer counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := r.getOrCreate(name, func() collector { return &Counter{name: name, help: help} })
	cc, ok := c.(*Counter)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, c.metricType()))
	}
	return cc
}

// FloatCounter registers (or returns the existing) float counter.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	c := r.getOrCreate(name, func() collector { return &FloatCounter{name: name, help: help} })
	fc, ok := c.(*FloatCounter)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, c.metricType()))
	}
	return fc
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	c := r.getOrCreate(name, func() collector { return &Gauge{name: name, help: help} })
	g, ok := c.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, c.metricType()))
	}
	return g
}

// Histogram registers (or returns the existing) fixed-bucket histogram.
// buckets are ascending upper bounds; the +Inf bucket is implicit. When
// the name already exists its original buckets are kept.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	c := r.getOrCreate(name, func() collector { return newHistogram(name, help, buckets) })
	h, ok := c.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, c.metricType()))
	}
	return h
}

// CounterVec registers (or returns the existing) labelled counter
// family. Children are resolved with With at registration time, never
// on the hot path.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	c := r.getOrCreate(name, func() collector {
		return &CounterVec{name: name, help: help, labels: labels, children: make(map[string]*Counter)}
	})
	v, ok := c.(*CounterVec)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, c.metricType()))
	}
	return v
}

// GaugeVec registers (or returns the existing) labelled gauge family.
// Children are resolved with With at registration time (e.g. one child
// per storage shard), never on the hot path.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	c := r.getOrCreate(name, func() collector {
		return &GaugeVec{name: name, help: help, labels: labels, children: make(map[string]*Gauge)}
	})
	v, ok := c.(*GaugeVec)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, c.metricType()))
	}
	return v
}

// Package-level shorthands against the Default registry, used by the
// instrumented packages at var-init time.

// NewCounter registers an integer counter on the Default registry.
func NewCounter(name, help string) *Counter { return Default().Counter(name, help) }

// NewFloatCounter registers a float counter on the Default registry.
func NewFloatCounter(name, help string) *FloatCounter { return Default().FloatCounter(name, help) }

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return Default().Gauge(name, help) }

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default().Histogram(name, help, buckets)
}

// NewCounterVec registers a labelled counter family on the Default
// registry.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default().CounterVec(name, help, labels...)
}

// NewGaugeVec registers a labelled gauge family on the Default
// registry.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return Default().GaugeVec(name, help, labels...)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), families sorted by name.
func (r *Registry) WritePrometheus(w *bufio.Writer) {
	r.mu.RLock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	cols := make([]collector, len(names))
	for i, n := range names {
		cols[i] = r.byName[n]
	}
	r.mu.RUnlock()

	for _, c := range cols {
		fmt.Fprintf(w, "# HELP %s %s\n", c.metricName(), c.metricHelp())
		fmt.Fprintf(w, "# TYPE %s %s\n", c.metricName(), c.metricType())
		c.writeTo(w)
	}
}

// Handler returns an http.Handler serving the registry in text
// exposition format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bw := bufio.NewWriter(w)
		r.WritePrometheus(bw)
		bw.Flush() //nolint:errcheck // response already committed
	})
}

// Handler serves the Default registry — the daemon's GET /metrics.
func Handler() http.Handler { return Default().Handler() }

// Exemplars returns every registered histogram's bucket exemplars,
// keyed by family name; families without exemplars are omitted. The
// classic text exposition on /metrics stays exemplar-free by design —
// this is the JSON side channel behind GET /debug/exemplars.
func (r *Registry) Exemplars() map[string][]Exemplar {
	r.mu.RLock()
	hists := make(map[string]*Histogram)
	for name, c := range r.byName {
		if h, ok := c.(*Histogram); ok {
			hists[name] = h
		}
	}
	r.mu.RUnlock()

	out := make(map[string][]Exemplar)
	for name, h := range hists {
		if ex := h.Exemplars(); len(ex) > 0 {
			out[name] = ex
		}
	}
	return out
}

// ExemplarHandler serves the Default registry's histogram exemplars as
// JSON — mount it at GET /debug/exemplars.
func ExemplarHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(Default().Exemplars()) //nolint:errcheck // response committed
	})
}

// writeFloat appends a float in the canonical exposition form.
func writeFloat(w *bufio.Writer, v float64) {
	w.Write(strconv.AppendFloat(make([]byte, 0, 24), v, 'g', -1, 64)) //nolint:errcheck
}
