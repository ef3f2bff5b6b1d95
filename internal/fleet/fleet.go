// Package fleet is the sharded scheduler of a multi-home daemon: it
// runs per-tenant planning cycles on a fixed pool of Workers goroutines
// that claim tenants through one atomic index, while keeping every
// observable outcome deterministic. Tenants are
// held in a slice sorted by ID — never ranged from a map — so dispatch
// order, error reporting order, and the OnError callback order are all
// identical run to run regardless of worker count. The planning work
// itself is per-tenant-isolated (each Member.Step closes over its own
// controller, store namespace, and journal), which is what makes a
// tenant's results bit-identical to the single-home path at any worker
// count: concurrency changes only which wall-clock instant a tenant
// steps at, never its inputs.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/imcf/imcf/internal/metrics"
)

// MemberError is one tenant's cycle failure with the failing tenant ID
// carried as a typed field, so SLO attribution and flight-recorder
// filtering never parse error strings. It wraps the tenant's own error
// for errors.Is/As chains and renders as "tenant <id>: <err>".
type MemberError struct {
	Tenant string
	Err    error
}

// Error implements error, preserving the historical message shape.
func (e *MemberError) Error() string { return fmt.Sprintf("tenant %s: %v", e.Tenant, e.Err) }

// Unwrap exposes the tenant's underlying error.
func (e *MemberError) Unwrap() error { return e.Err }

// MemberErrors flattens the per-tenant failures out of a Cycle error
// (an errors.Join of *MemberError values), in tenant-ID order. A nil or
// foreign error yields nil.
func MemberErrors(err error) []*MemberError {
	if err == nil {
		return nil
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		var me *MemberError
		if errors.As(err, &me) {
			return []*MemberError{me}
		}
		return nil
	}
	var out []*MemberError
	for _, e := range joined.Unwrap() {
		var me *MemberError
		if errors.As(e, &me) {
			out = append(out, me)
		}
	}
	return out
}

// Member is one tenant's hook into the scheduler: a stable home ID and
// the function running one planning cycle for that home. Step closes
// over everything tenant-scoped (controller, store namespace, journal)
// and must be safe to call concurrently with other tenants' Steps —
// never with itself; the scheduler serializes per tenant by running at
// most one cycle at a time.
type Member struct {
	ID   string
	Step func(ctx context.Context) error
}

// Options configure a Scheduler.
type Options struct {
	// Workers bounds how many tenants plan concurrently within one
	// cycle. Zero or negative means 1: strictly sequential, in tenant-ID
	// order — the reference schedule the equivalence harness compares
	// parallel runs against.
	Workers int

	// OnError, when set, is invoked once per failed tenant after the
	// cycle's fan-out has drained, in tenant-ID order (deterministic, and
	// never concurrent with itself).
	OnError func(id string, err error)

	// ObserveResult, when set, receives each tenant's cycle latency in
	// seconds together with its outcome — the feed the SLO engine
	// attributes error budgets from. Called from worker goroutines; must
	// be safe for concurrent use.
	ObserveResult func(id string, seconds float64, err error)

	// AfterCycle, when set, runs at the end of every Cycle, after the
	// fan-out has drained and OnError has reported — the hook the daemon
	// evaluates SLO alert states on. Never concurrent with itself.
	AfterCycle func()
}

// Scheduler fans planning cycles across a tenant fleet. A Scheduler is
// immutable after New; Cycle may be called from one goroutine at a
// time (the daemon's schedule loop).
type Scheduler struct {
	members    []Member         // sorted by ID: deterministic dispatch + report order
	planGauges []*metrics.Gauge // imcf_fleet_tenant_plan_seconds children, index-aligned with members
	workers    int
	onError    func(id string, err error)
	observeRes func(id string, seconds float64, err error)
	afterCycle func()

	mu   sync.Mutex   // serializes Cycle
	errs []error      // per-member scratch, index-aligned with members
	next atomic.Int64 // the next member a Cycle's workers claim
}

// New builds a Scheduler over the given tenants. The member slice is
// copied and sorted by ID; IDs must be non-empty and unique, Steps
// non-nil.
func New(members []Member, opts Options) (*Scheduler, error) {
	ms := make([]Member, len(members))
	copy(ms, members)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	for i, m := range ms {
		if m.ID == "" {
			return nil, errors.New("fleet: member with empty tenant ID")
		}
		if m.Step == nil {
			return nil, fmt.Errorf("fleet: tenant %s has no Step", m.ID)
		}
		if i > 0 && ms[i-1].ID == m.ID {
			return nil, fmt.Errorf("fleet: duplicate tenant ID %s", m.ID)
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	s := &Scheduler{
		members:    ms,
		workers:    workers,
		onError:    opts.OnError,
		observeRes: opts.ObserveResult,
		afterCycle: opts.AfterCycle,
		errs:       make([]error, len(ms)),
		// Resolved once: GaugeVec.With takes a family-wide lock and a
		// map lookup, which every worker would otherwise pay per step.
		planGauges: make([]*metrics.Gauge, len(ms)),
	}
	for i, m := range ms {
		s.planGauges[i] = tenantPlanSeconds.With(m.ID)
	}
	fleetTenants.Set(float64(len(ms)))
	return s, nil
}

// Len returns the fleet size.
func (s *Scheduler) Len() int { return len(s.members) }

// Workers returns the bounded pool size.
func (s *Scheduler) Workers() int { return s.workers }

// Tenants returns the tenant IDs in dispatch order (sorted).
func (s *Scheduler) Tenants() []string {
	ids := make([]string, len(s.members))
	for i, m := range s.members {
		ids[i] = m.ID
	}
	return ids
}

// Cycle steps every tenant once, at most Workers concurrently, and
// waits for all of them. Tenants that fail are reported through OnError
// and the joined return error, both in tenant-ID order; one tenant's
// failure never stops the others. A canceled context stops dispatching
// new tenants (already-running Steps see the cancellation through
// their own ctx) and the skipped tenants report the context error.
//
// The calling goroutine is one of the workers, so a one-worker fleet
// steps its tenants in ID order without starting a goroutine.
func (s *Scheduler) Cycle(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	//imcf:allow determinism cycle wall time feeds metrics only, never planning results
	start := time.Now()
	s.next.Store(0)
	var wg sync.WaitGroup
	for w := 1; w < min(s.workers, len(s.members)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(ctx)
		}()
	}
	s.work(ctx)
	//imcf:allow lockdiscipline cycle barrier: workers never touch s.mu, so waiting for them while holding it cannot deadlock
	wg.Wait()

	fleetCycles.Inc()
	//imcf:allow determinism cycle wall time feeds metrics only, never planning results
	fleetCycleSeconds.Observe(time.Since(start).Seconds())

	var failed []error
	for i, err := range s.errs {
		s.errs[i] = nil
		if err == nil {
			continue
		}
		id := s.members[i].ID
		tenantErrors.With(id).Inc()
		if s.onError != nil {
			s.onError(id, err)
		}
		failed = append(failed, &MemberError{Tenant: id, Err: err})
	}
	if s.afterCycle != nil {
		s.afterCycle()
	}
	return errors.Join(failed...)
}

// work is one worker's loop: it claims members through the shared index
// until none is left. Each member's error lands in its own slot of
// s.errs, so the report order never depends on which worker ran it.
func (s *Scheduler) work(ctx context.Context) {
	for {
		i := int(s.next.Add(1) - 1)
		if i >= len(s.members) {
			return
		}
		if err := ctx.Err(); err != nil {
			s.errs[i] = fmt.Errorf("fleet: cycle canceled: %w", err)
			continue
		}
		m := &s.members[i]
		//imcf:allow determinism per-tenant latency feeds metrics/bench observers only
		tStart := time.Now()
		err := m.Step(ctx)
		//imcf:allow determinism per-tenant latency feeds metrics/bench observers only
		sec := time.Since(tStart).Seconds()
		s.planGauges[i].Set(sec)
		if s.observeRes != nil {
			s.observeRes(m.ID, sec, err)
		}
		s.errs[i] = err
	}
}
