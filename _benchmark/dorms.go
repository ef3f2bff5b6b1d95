package main

import (
	"fmt"
	"time"

	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/sim"
)

// paper-dorms replays the paper's Dorms dataset (100 zones, 600
// meta-rules, three years of hourly slots) with EP through sim.Run,
// repeatedly over one sim.Workload. One operation is one EP plan window;
// one call is one whole replay.

type dormsConfig struct {
	build func(seed uint64) (*home.Residence, error)
}

func dormsFull() dormsConfig { return dormsConfig{build: home.Dorms} }

// dormsTiny replays the six-rule Flat instead, for the tests.
func dormsTiny() dormsConfig { return dormsConfig{build: home.Flat} }

type dorms struct {
	e   env
	cfg dormsConfig

	w      *sim.Workload
	expect dormsExpect
	first  *sim.Result // the first replay's result; every later one must equal it
	last   sim.Result
	lastOK bool

	// Traced-round accumulators.
	replays     int
	windows     int64
	plannerTime time.Duration
	mallocs     uint64
	counts      counterSet
	c0          counterSet
	m0          memSnap
}

var dormsCounters = []string{"imcf_planner_iterations_total", "imcf_planner_plans_total"}

func (d *dorms) beginTraced() { d.c0, d.m0 = readCounters(dormsCounters...), readMem() }

func (d *dorms) endTraced() {
	d.mallocs += readMem().mallocs - d.m0.mallocs
	d.counts.add(readCounters(dormsCounters...).since(d.c0))
}

func newDorms(e env, cfg dormsConfig) *dorms {
	return &dorms{e: e, cfg: cfg, counts: counterSet{}}
}

// simOpts is the replay configuration of the timed rounds: one worker,
// no journal. At two or more workers sim.Run prefetches window problems
// on a producer pool, and that pipeline can deadlock (see CHANGES.md), so
// the replays run the sequential path.
func (d *dorms) simOpts() sim.Options { return sim.Options{Workers: 1} }

func (d *dorms) close() error {
	d.w = nil
	return nil
}

func (d *dorms) setup(tr *tracer) error {
	sp := tr.start("home.residence", 0)
	res, err := d.cfg.build(d.e.seed)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start("sim.build", 0)
	w, err := sim.BuildWorkload(res, sim.Options{Workers: d.e.nproc})
	tr.end(sp)
	if err != nil {
		return err
	}
	d.w = w
	if d.expect, err = newDormsExpect(res); err != nil {
		return err
	}
	d.first = nil
	return nil
}

// windowsPerReplay is the number of daily EP plan windows in the period.
func (d *dorms) windowsPerReplay() int {
	return (d.w.Grid.Len() + sim.DefaultPlanWindowHours - 1) / sim.DefaultPlanWindowHours
}

func (d *dorms) round(tr *tracer, lat *latHist) (int, int, error) {
	n := d.windowsPerReplay()
	sp := tr.start("sim.replay", 0)
	t0 := time.Now()
	r, err := sim.Run(d.w, sim.EP, d.simOpts())
	lat.add(float64(time.Since(t0).Nanoseconds()) / 1e6)
	tr.end(sp)
	if err != nil {
		d.lastOK = false
		return n, n, nil
	}
	if tr != nil {
		// The planner's own F_T: problem construction plus search, a
		// child of the replay span.
		tr.add("core.plan", sp, r.PlannerTime)
		d.replays++
		d.windows += int64(n)
		d.plannerTime += r.PlannerTime
	}
	d.last, d.lastOK = r, true
	return n, 0, nil
}

func (d *dorms) check() error {
	if !d.lastOK {
		return nil // counted as failed operations
	}
	if err := checkEPResult(d.expect, d.last); err != nil {
		return err
	}
	if d.first == nil {
		r := d.last
		d.first = &r
		return nil
	}
	return sameResult("repeated EP replay", *d.first, d.last)
}

// journalSum is a journal sink summing the executed verdicts' energy.
type journalSum struct {
	executedKWh float64
	events      int
}

func (s *journalSum) AppendEvent(ev journal.Event) error {
	s.events++
	if ev.Verdict == journal.VerdictExecuted {
		s.executedKWh += ev.EnergyKWh
	}
	return nil
}

// finish runs the verification replays: the timed result must be
// bit-identical with a journal attached, the journal's executed energy
// must add up to the replay's, and an MR replay's energy must be the
// benchmark's own sum.
func (d *dorms) finish() error {
	defer func() { d.w = nil }()
	if d.first == nil {
		return fmt.Errorf("no successful EP replay to verify")
	}
	sink := &journalSum{}
	j := journal.New(1)
	j.SetSink(sink)
	opts := d.simOpts()
	opts.Journal = j
	jr, err := sim.Run(d.w, sim.EP, opts)
	if err != nil {
		return err
	}
	if err := sameResult("EP with journal vs without", *d.first, jr); err != nil {
		return err
	}
	if sink.events == 0 {
		return fmt.Errorf("journal sink saw no events")
	}
	if err := checkJournalEnergy(d.expect, sink.executedKWh, jr); err != nil {
		return err
	}
	mr, err := sim.Run(d.w, sim.MR, sim.Options{Workers: 1})
	if err != nil {
		return err
	}
	return checkMRResult(d.expect, mr)
}

func (d *dorms) layers(spans []span) map[string]metric {
	out := map[string]metric{}
	out["sim.build_s"] = metric{median(durations(spans, "sim.build")), "s"}
	replays := durations(spans, "sim.replay")
	out["sim.replay_ms"] = metric{1000 * median(replays), "ms"}
	if d.windows > 0 {
		out["core.plan_us"] = metric{float64(d.plannerTime.Microseconds()) / float64(d.windows), "us"}
	}
	if p := d.counts["imcf_planner_plans_total"]; p > 0 {
		out["core.iters_per_plan"] = metric{float64(d.counts["imcf_planner_iterations_total"]) / float64(p), "count"}
	}
	if d.replays > 0 {
		out["sim.allocs_per_replay"] = metric{float64(d.mallocs) / float64(d.replays), "count"}
	}
	return out
}
