package obs

import (
	"sort"
	"sync"
	"time"

	"github.com/imcf/imcf/internal/metrics"
)

// The SLO engine turns the fleet scheduler's Observe stream into
// per-tenant service-level state: rolling-window plan-latency
// percentiles, error rates and error-budget burn rates over 1m/5m/1h
// windows, driving a deterministic ok→warn→page alert state machine
// with hysteresis. Monitoring at fleet cardinality must stay bounded:
// a tenant budget caps how many homes get their own series — overflow tenants aggregate into the OverflowTenant bucket,
// so a 10k-home fleet cannot blow up the metrics registry (the
// aggregation-strategy argument of the adaptable rule-engine framework
// paper, PAPERS.md).
//
// Everything is driven by explicit timestamps (the caller's clock):
// the engine itself never reads the wall clock, which keeps it inside
// the determinism lint scope and makes the window math property-testable.

// State is a tenant's alert state.
type State int

// Alert states, in escalation order.
const (
	StateOK State = iota
	StateWarn
	StatePage
)

// String returns the state's wire name.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarn:
		return "warn"
	case StatePage:
		return "page"
	default:
		return "unknown"
	}
}

// OverflowTenant is the aggregate bucket for tenants beyond the series
// budget. The leading underscore keeps it outside the ParseTenantID
// charset, so it can never collide with a real home.
const OverflowTenant = "_other"

// windowSpans are the rolling windows, shortest first. Each window is
// windowSlots buckets of span/windowSlots.
var windowSpans = [...]time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// windowNames are the wire names of the windows, index-aligned with
// windowSpans.
var windowNames = [...]string{"1m", "5m", "1h"}

// windowSlots is the bucket count per window: percentile error from
// bucket granularity stays under ~2% of the span.
const windowSlots = 60

// latBounds are the latency histogram bucket upper bounds in seconds
// (the +Inf bucket is implicit). Plan cycles run microseconds to
// milliseconds; the tail covers degraded disks.
var latBounds = [...]float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// The SLO's objective and alerting thresholds.
const (
	// errorBudget is the tolerated planning-cycle error rate (the
	// SLO's "allowed unreliability"): 99% of cycles succeed. Burn rate
	// 1 means spending exactly this budget.
	errorBudget = 0.01
	// warnBurn and pageBurn are the burn-rate thresholds: a tenant
	// escalates when its burn over BOTH the 1m and 5m windows reaches
	// the threshold (the multi-window rule that keeps one blip from
	// paging). A tenant pages at an error rate of 0.1.
	warnBurn, pageBurn = 2, 10
	// clearAfter is the hysteresis: consecutive clean evaluations
	// before a tenant steps down toward ok.
	clearAfter = 2
	// tenantBudget caps tenants with their own windows and label
	// series; the rest aggregate into OverflowTenant.
	tenantBudget = 256
)

// Config parameterizes the SLO engine. The zero value is a working
// engine; every engine publishes the imcf_slo_* families.
type Config struct {
	// OnTransition, when set, observes every alert state change at
	// Evaluate time — the daemon hooks page entries into the flight
	// recorder. Called synchronously with the engine unlocked, in
	// tenant order.
	OnTransition func(tenant string, from, to State)
}

// bucket is one time slot of one rolling window.
type bucket struct {
	count uint64
	errs  uint64
	lat   [len(latBounds) + 1]uint64
}

// window is a rolling ring of windowSlots buckets. The absolute bucket
// index occupying each slot lives in the compact stamps array, apart
// from the payloads: mergeAt scans stamps for liveness — 8 cache lines
// instead of one line per 168-byte bucket — and only dereferences the
// few live payloads. Evaluate runs this scan per tenant per window
// every cycle, so the layout is what keeps fleet-cardinality SLO
// evaluation off the serving path's profile.
type window struct {
	bucketDur time.Duration
	stamps    [windowSlots]int64
	buckets   [windowSlots]bucket
}

// observeAt adds one sample. ns is the absolute timestamp in
// nanoseconds and li its precomputed latency bucket — both hoisted to
// the caller so the three windows share one UnixNano and one latIndex.
func (w *window) observeAt(ns int64, li int, isErr bool) {
	idx := ns / int64(w.bucketDur)
	slot := int(idx%windowSlots+windowSlots) % windowSlots
	b := &w.buckets[slot]
	if w.stamps[slot] != idx {
		*b = bucket{}
		w.stamps[slot] = idx
	}
	b.count++
	if isErr {
		b.errs++
	}
	b.lat[li]++
}

// latIndex maps a latency to its histogram bucket.
func latIndex(seconds float64) int {
	for i, ub := range latBounds {
		if seconds <= ub {
			return i
		}
	}
	return len(latBounds)
}

// merged is the aggregate of every live bucket in a window at now.
type merged struct {
	count uint64
	errs  uint64
	lat   [len(latBounds) + 1]uint64
}

// mergeAt folds the buckets still inside the window at now. The current
// (partial) bucket is included: alerting must see the newest errors.
func (w *window) mergeAt(now time.Time) merged {
	newest := now.UnixNano() / int64(w.bucketDur)
	oldest := newest - windowSlots + 1
	var m merged
	for i, stamp := range w.stamps {
		if stamp < oldest || stamp > newest {
			continue
		}
		b := &w.buckets[i]
		m.count += b.count
		m.errs += b.errs
		for j := range b.lat {
			m.lat[j] += b.lat[j]
		}
	}
	return m
}

// errorRate returns errs/count, 0 when empty.
func (m merged) errorRate() float64 {
	if m.count == 0 {
		return 0
	}
	return float64(m.errs) / float64(m.count)
}

// percentile returns the upper bound of the bucket containing the q-th
// quantile (0 < q <= 1), 0 when empty. The estimate is deterministic
// and conservative: it rounds latencies up to their bucket bound.
func (m merged) percentile(q float64) float64 {
	if m.count == 0 {
		return 0
	}
	rank := uint64(q * float64(m.count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range m.lat {
		cum += c
		if cum >= rank {
			if i < len(latBounds) {
				return latBounds[i]
			}
			return latBounds[len(latBounds)-1] * 2 // +Inf bucket: beyond the last bound
		}
	}
	return latBounds[len(latBounds)-1] * 2
}

// tenantSLO is one tenant's windows, alert state and resolved metric
// children.
type tenantSLO struct {
	id      string
	windows [len(windowSpans)]window
	state   State
	clean   int // consecutive clean evaluations (hysteresis)

	stateG *metrics.Gauge
	burnG  [len(windowSpans)]*metrics.Gauge
	errG   *metrics.Gauge
	p99G   *metrics.Gauge
}

// SLO is the per-tenant SLO/burn-rate engine. All methods are safe for
// concurrent use; Observe is called from fleet worker goroutines.
type SLO struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenantSLO
	order   []string // sorted tenant IDs: deterministic evaluation order
}

// NewSLO builds an engine with the given configuration.
func NewSLO(cfg Config) *SLO {
	return &SLO{cfg: cfg, tenants: make(map[string]*tenantSLO)}
}

// tenantLocked resolves (or creates) the tenant's series, applying the
// cardinality budget: the OverflowTenant bucket never counts against
// it and is created on first overflow.
func (s *SLO) tenantLocked(id string) *tenantSLO {
	if t, ok := s.tenants[id]; ok {
		return t
	}
	if id != OverflowTenant && len(s.tenants) >= tenantBudget {
		sloOverflow.Inc()
		return s.tenantLocked(OverflowTenant)
	}
	t := &tenantSLO{id: id}
	for i := range t.windows {
		t.windows[i].bucketDur = windowSpans[i] / windowSlots
	}
	t.stateG = sloState.With(id)
	for i, name := range windowNames {
		t.burnG[i] = sloBurnRate.With(id, name)
	}
	t.errG = sloErrorRate.With(id)
	t.p99G = sloLatencyP99.With(id)
	s.tenants[id] = t
	s.order = append(s.order, id)
	sort.Strings(s.order)
	sloTenants.Set(float64(len(s.tenants)))
	return t
}

// Observe records one planning-cycle sample for the tenant: its latency
// in seconds and whether the cycle failed. now comes from the caller's
// clock — the engine never reads wall time.
func (s *SLO) Observe(tenant string, now time.Time, seconds float64, isErr bool) {
	ns := now.UnixNano()
	li := latIndex(seconds)
	s.mu.Lock()
	t := s.tenantLocked(tenant)
	for i := range t.windows {
		t.windows[i].observeAt(ns, li, isErr)
	}
	s.mu.Unlock()
	sloSamples.Inc()
}

// transition is one state change surfaced by Evaluate.
type transition struct {
	tenant   string
	from, to State
}

// Evaluate advances every tenant's alert state machine against the
// windows as of now and publishes the imcf_slo_* gauges. Escalation is
// immediate; de-escalation needs clearAfter consecutive clean
// evaluations (hysteresis). Transitions are reported through
// Config.OnTransition in tenant order, after the engine unlocks.
func (s *SLO) Evaluate(now time.Time) {
	var fired []transition
	s.mu.Lock()
	for _, id := range s.order {
		t := s.tenants[id]
		var burns [len(windowSpans)]float64
		var short merged
		for i := range t.windows {
			m := t.windows[i].mergeAt(now)
			burns[i] = m.errorRate() / errorBudget
			if i == 0 {
				short = m
			}
		}
		desired := StateOK
		switch {
		case burns[0] >= pageBurn && burns[1] >= pageBurn:
			desired = StatePage
		case burns[0] >= warnBurn && burns[1] >= warnBurn:
			desired = StateWarn
		}
		prev := t.state
		if desired >= t.state {
			t.state = desired
			t.clean = 0
		} else {
			t.clean++
			if t.clean >= clearAfter {
				t.state = desired
				t.clean = 0
			}
		}
		if t.state != prev {
			fired = append(fired, transition{tenant: id, from: prev, to: t.state})
			sloTransitions.With(t.state.String()).Inc()
		}
		t.stateG.Set(float64(t.state))
		for i := range burns {
			t.burnG[i].Set(burns[i])
		}
		t.errG.Set(short.errorRate())
		t.p99G.Set(short.percentile(0.99))
	}
	s.mu.Unlock()
	if s.cfg.OnTransition != nil {
		for _, tr := range fired {
			s.cfg.OnTransition(tr.tenant, tr.from, tr.to)
		}
	}
}

// WindowStatus is one rolling window's view of a tenant in a Snapshot.
type WindowStatus struct {
	Window    string  `json:"window"`
	Count     uint64  `json:"count"`
	ErrorRate float64 `json:"errorRate"`
	BurnRate  float64 `json:"burnRate"`
	P50       float64 `json:"p50Seconds"`
	P95       float64 `json:"p95Seconds"`
	P99       float64 `json:"p99Seconds"`
}

// TenantStatus is one tenant's SLO state in a Snapshot — the /healthz
// detail block.
type TenantStatus struct {
	Tenant  string         `json:"tenant"`
	State   string         `json:"state"`
	Windows []WindowStatus `json:"windows"`
}

// State returns the tenant's current alert state (StateOK for unknown
// tenants).
func (s *SLO) State(tenant string) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[tenant]; ok {
		return t.state
	}
	return StateOK
}

// Snapshot reports every tracked tenant's windows and alert state as of
// now, sorted by tenant ID. It is read-only: scraping /healthz never
// advances the state machine.
func (s *SLO) Snapshot(now time.Time) []TenantStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStatus, 0, len(s.order))
	for _, id := range s.order {
		t := s.tenants[id]
		ts := TenantStatus{Tenant: id, State: t.state.String()}
		for i := range t.windows {
			m := t.windows[i].mergeAt(now)
			ts.Windows = append(ts.Windows, WindowStatus{
				Window:    windowNames[i],
				Count:     m.count,
				ErrorRate: m.errorRate(),
				BurnRate:  m.errorRate() / errorBudget,
				P50:       m.percentile(0.50),
				P95:       m.percentile(0.95),
				P99:       m.percentile(0.99),
			})
		}
		out = append(out, ts)
	}
	return out
}
