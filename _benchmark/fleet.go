package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"github.com/imcf/imcf/internal/controller"
	"github.com/imcf/imcf/internal/daemon"
	"github.com/imcf/imcf/internal/fleet"
	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/stream"
)

// fleet-hourly hosts a few hundred tenants in one daemon.New and steps
// them in-process with Fleet().Cycle, one simulated hour per cycle,
// over the same span from the same epoch in every round. One operation
// is one tenant's planning step; one call is one Cycle.

type fleetConfig struct {
	tenants int // hosted homes: prototype, flat and house in turn
	span    int // simulated hours per round
}

func fleetFull() fleetConfig { return fleetConfig{tenants: 198, span: 168} }

func fleetTiny() fleetConfig { return fleetConfig{tenants: 6, span: 24} }

// fleetEpoch is the first simulated hour of every round (a Monday).
var fleetEpoch = time.Date(2021, time.January, 4, 0, 0, 0, 0, time.UTC)

var fleetResidences = []string{"prototype", "flat", "house"}

// hourClock is the benchmark's simulated clock: the daemon plans
// against whatever hour the benchmark sets, so every round can replay
// the same span. Timers wait in real time; the benchmark never runs the
// daemon's cron.
type hourClock struct{ ns atomic.Int64 }

func newHourClock(t time.Time) *hourClock {
	c := &hourClock{}
	c.set(t)
	return c
}

func (c *hourClock) Now() time.Time                         { return time.Unix(0, c.ns.Load()).UTC() }
func (c *hourClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (c *hourClock) set(t time.Time)                        { c.ns.Store(t.UnixNano()) }
func (c *hourClock) advance(d time.Duration)                { c.ns.Add(int64(d)) }

// residence builds one of the daemon's built-in layouts, the
// benchmark's own copy for its checks.
func residence(name string, seed uint64) (*home.Residence, error) {
	switch name {
	case "prototype":
		return home.Prototype(seed)
	case "flat":
		return home.Flat(seed)
	case "house":
		return home.House(seed)
	}
	return nil, fmt.Errorf("unknown residence %q", name)
}

// weeklyBudget spreads a residence's evaluation-period budget evenly
// over its weeks.
func weeklyBudget(res *home.Residence) float64 {
	return res.Budget.KWh() / (52 * float64(res.Years))
}

// tenantSpecs derives n tenants from the seed: residences in turn, each
// with its own seed and its residence's weekly budget. It returns the
// benchmark's own model of each tenant's rules alongside.
func tenantSpecs(seed uint64, n int, kinds []string) ([]daemon.TenantSpec, map[string]homeModel, error) {
	specs := make([]daemon.TenantSpec, n)
	models := make(map[string]homeModel, n)
	for i := range specs {
		kind := kinds[i%len(kinds)]
		s := seed*1_000_003 + uint64(i)
		res, err := residence(kind, s)
		if err != nil {
			return nil, nil, err
		}
		specs[i] = daemon.TenantSpec{ID: fmt.Sprintf("t%04d", i), Residence: kind, Seed: s, WeeklyBudgetKWh: weeklyBudget(res)}
		if models[specs[i].ID], err = newHomeModel(res, res.MRT); err != nil {
			return nil, nil, err
		}
	}
	return specs, models, nil
}

type fleetBench struct {
	e   env
	cfg fleetConfig

	specs  []daemon.TenantSpec
	models map[string]homeModel
	clock  *hourClock
	d      *daemon.Daemon
	ids    []string
	ctls   []*controller.Controller
	soloOK bool // hosted tenants matched their solo rebuilds

	// Traced-round accumulators.
	heapPerTenant       float64
	cycleCPU, directCPU time.Duration
	cycleSteps          int64
	directSteps         int64
	directAlloc         uint64
	streamEvents        uint64
	counts              counterSet
	c0                  counterSet
	seq0                uint64
	cpu0                time.Duration
}

func newFleet(e env, cfg fleetConfig) *fleetBench {
	return &fleetBench{e: e, cfg: cfg, counts: counterSet{}}
}

func (f *fleetBench) daemonOpts(specs []daemon.TenantSpec, clock *hourClock) daemon.Options {
	return daemon.Options{
		Addr:         "127.0.0.1:0",
		Tenants:      specs,
		FleetWorkers: f.e.nproc,
		StoreBackend: "mem",
		Clock:        clock,
	}
}

func (f *fleetBench) setup(tr *tracer) error {
	if f.specs == nil {
		var err error
		if f.specs, f.models, err = tenantSpecs(f.e.seed, f.cfg.tenants, fleetResidences); err != nil {
			return err
		}
	}
	var h0 uint64
	if tr != nil {
		h0 = liveHeap()
	}
	f.clock = newHourClock(fleetEpoch)
	sp := tr.start("daemon.new", 0)
	d, err := daemon.New(f.daemonOpts(f.specs, f.clock))
	tr.end(sp)
	if err != nil {
		return err
	}
	if tr != nil {
		f.heapPerTenant = float64(liveHeap()-h0) / 1024 / float64(f.cfg.tenants)
	}
	f.d, f.ids, f.soloOK = d, d.Tenants(), false
	f.ctls = make([]*controller.Controller, len(f.ids))
	for i, id := range f.ids {
		f.ctls[i] = d.Tenant(id).Controller()
	}
	return nil
}

func (f *fleetBench) streamSeq() uint64 {
	var n uint64
	for _, c := range f.ctls {
		n += c.Stream().Seq()
	}
	return n
}

var fleetCounters = []string{"imcf_planner_iterations_total", "imcf_planner_plans_total", "imcf_journal_events_total"}

func (f *fleetBench) beginTraced() {
	f.c0, f.seq0, f.cpu0 = readCounters(fleetCounters...), f.streamSeq(), cpuTime()
}

func (f *fleetBench) endTraced() {
	f.cycleCPU += cpuTime() - f.cpu0
	f.counts.add(readCounters(fleetCounters...).since(f.c0))
	f.streamEvents += f.streamSeq() - f.seq0
	f.cycleSteps += int64(len(f.ids) * f.cfg.span)
}

func (f *fleetBench) round(tr *tracer, lat *latHist) (int, int, error) {
	ctx := context.Background()
	f.clock.set(fleetEpoch)
	failed := 0
	for h := 0; h < f.cfg.span; h++ {
		sp := tr.start("fleet.cycle", 0)
		t0 := time.Now()
		err := f.d.Fleet().Cycle(ctx)
		lat.add(float64(time.Since(t0).Nanoseconds()) / 1e6)
		tr.end(sp)
		failed += len(fleet.MemberErrors(err))
		f.clock.advance(time.Hour)
	}
	return len(f.ids) * f.cfg.span, failed, nil
}

// extraRound replays the same span calling each tenant's StepCtx
// directly, one tenant after another: the per-step cost without the
// fleet scheduler's fan-out and SLO feed.
func (f *fleetBench) extraRound(tr *tracer) (int, error) {
	ctx := context.Background()
	f.clock.set(fleetEpoch)
	m0, cpu0 := readMem(), cpuTime()
	for h := 0; h < f.cfg.span; h++ {
		for _, c := range f.ctls {
			sp := tr.start("controller.step", 0)
			_, err := c.StepCtx(ctx)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
		}
		f.clock.advance(time.Hour)
	}
	f.directCPU += cpuTime() - cpu0
	f.directAlloc += readMem().totalAlloc - m0.totalAlloc
	steps := len(f.ctls) * f.cfg.span
	f.directSteps += int64(steps)
	return steps, nil
}

// check verifies every tenant's last round: each step report against
// the tenant's rules, the firewall block set after the last step, and
// the stream hub's state. After the first round it also rebuilds a few
// tenants alone and compares their steps with the hosted ones.
func (f *fleetBench) check() error {
	for i, id := range f.ids {
		c := f.ctls[i]
		m := f.models[id]
		hist := c.History()
		if len(hist) < f.cfg.span {
			return fmt.Errorf("tenant %s: %d step reports, want %d", id, len(hist), f.cfg.span)
		}
		hist = hist[len(hist)-f.cfg.span:]
		for k, rep := range hist {
			if want := fleetEpoch.Add(time.Duration(k) * time.Hour); !rep.Time.Equal(want) {
				return fmt.Errorf("tenant %s: step %d at %v, want %v", id, k, rep.Time, want)
			}
			if err := checkStep(m, rep); err != nil {
				return fmt.Errorf("tenant %s: %w", id, err)
			}
		}
		// A day of hourly steps makes every rule active at least once,
		// so the span's steps alone settle the model of the block set.
		state := blockState{}
		for _, rep := range hist {
			state.apply(m, rep)
		}
		last := hist[len(hist)-1]
		if err := checkBlockSet(m, state, last, c.Firewall().Rules()); err != nil {
			return fmt.Errorf("tenant %s: %w", id, err)
		}
		if err := checkHub(c, last); err != nil {
			return fmt.Errorf("tenant %s: %w", id, err)
		}
	}
	if !f.soloOK {
		if err := f.checkSolo(); err != nil {
			return err
		}
		f.soloOK = true
	}
	return nil
}

// checkHub checks that a tenant's stream hub carries the controller's
// MRT, its last plan and its firewall block set.
func checkHub(c *controller.Controller, last controller.StepReport) error {
	got := stream.NewMirror()
	got.ApplySnapshot(c.Stream().Snapshot())
	want, err := mirrorOf(c.MRT(), last, c.Firewall().Rules())
	if err != nil {
		return err
	}
	return checkMirror("stream hub", got, want)
}

// mirrorOf builds the mirror a subscriber should hold for this state.
func mirrorOf(mrt any, plan controller.StepReport, fw []string) (*stream.Mirror, error) {
	m := stream.NewMirror()
	for _, c := range []struct {
		kind stream.Kind
		v    any
	}{{stream.KindMRT, mrt}, {stream.KindPlan, plan}, {stream.KindFirewall, fw}} {
		b, err := json.Marshal(c.v)
		if err != nil {
			return nil, err
		}
		if err := m.Set("", c.kind, b); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// soloSpecs returns the first hosted tenant of each residence: the
// tenants checkSolo rebuilds alone.
func (f *fleetBench) soloSpecs() []daemon.TenantSpec {
	var out []daemon.TenantSpec
	seen := map[string]bool{}
	for _, s := range f.specs {
		if !seen[s.Residence] {
			seen[s.Residence] = true
			out = append(out, s)
		}
	}
	return out
}

// checkSolo rebuilds one tenant of each residence, each alone in a
// one-tenant daemon, steps it over the first round's hours and requires
// the same step reports the hosted tenant produced in that round.
func (f *fleetBench) checkSolo() error {
	for _, spec := range f.soloSpecs() {
		hosted := f.d.Tenant(spec.ID).Controller().History()
		if len(hosted) > f.cfg.span {
			hosted = hosted[:f.cfg.span]
		}
		clock := newHourClock(fleetEpoch)
		opts := f.daemonOpts([]daemon.TenantSpec{spec}, clock)
		opts.FleetWorkers = 1
		d, err := daemon.New(opts)
		if err != nil {
			return err
		}
		for h := 0; h < f.cfg.span; h++ {
			if err := d.Fleet().Cycle(context.Background()); err != nil {
				d.Close()
				return err
			}
			clock.advance(time.Hour)
		}
		solo := d.Tenant(spec.ID).Controller().History()
		if err := d.Close(); err != nil {
			return err
		}
		if !reflect.DeepEqual(hosted, solo) {
			return fmt.Errorf("tenant %s: hosted steps differ from the same tenant alone in a daemon", spec.ID)
		}
	}
	return nil
}

func (f *fleetBench) finish() error { return f.close() }

func (f *fleetBench) close() error {
	if f.d == nil {
		return nil
	}
	err := f.d.Close()
	f.d, f.ctls = nil, nil
	return err
}

func (f *fleetBench) layers(spans []span) map[string]metric {
	out := map[string]metric{}
	out["fleet.cycle_ms"] = metric{1000 * median(durations(spans, "fleet.cycle")), "ms"}
	steps := durations(spans, "controller.step")
	out["controller.step_us_p50"] = metric{1e6 * percentile(steps, 0.5), "us"}
	out["controller.step_us_p99"] = metric{1e6 * percentile(steps, 0.99), "us"}
	if f.directSteps > 0 {
		out["controller.alloc_kb_per_step"] = metric{float64(f.directAlloc) / 1024 / float64(f.directSteps), "KiB"}
	}
	if f.cycleSteps > 0 && f.directSteps > 0 {
		perCycle := float64(f.cycleCPU.Nanoseconds()) / float64(f.cycleSteps)
		perDirect := float64(f.directCPU.Nanoseconds()) / float64(f.directSteps)
		out["fleet.self_us_per_step"] = metric{(perCycle - perDirect) / 1000, "us"}
	}
	if f.cycleSteps > 0 {
		out["stream.events_per_step"] = metric{float64(f.streamEvents) / float64(f.cycleSteps), "count"}
		out["journal.events_per_step"] = metric{float64(f.counts["imcf_journal_events_total"]) / float64(f.cycleSteps), "count"}
	}
	if p := f.counts["imcf_planner_plans_total"]; p > 0 {
		out["core.iters_per_tenant_plan"] = metric{float64(f.counts["imcf_planner_iterations_total"]) / float64(p), "count"}
	}
	out["daemon.heap_kb_per_tenant"] = metric{f.heapPerTenant, "KiB"}
	return out
}
