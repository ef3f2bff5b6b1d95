// Package sim is the trace-driven simulation harness of the IMCF
// reproduction: it replays a residence's ambient traces through one of
// the compared algorithms — NR, IFTTT, EP or MR — over the evaluation
// period and reports the paper's metrics: Convenience Error (F_CE),
// Energy Consumption (F_E) and planner CPU time (F_T).
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/imcf/imcf/internal/core"
	"github.com/imcf/imcf/internal/ecp"
	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/units"
)

// Algorithm identifies one of the compared methods.
type Algorithm int

// The four compared methods of the paper's Fig. 6.
const (
	NR Algorithm = iota + 1
	IFTTT
	EP
	MR
)

// String returns the method acronym.
func (a Algorithm) String() string {
	switch a {
	case NR:
		return "NR"
	case IFTTT:
		return "IFTTT"
	case EP:
		return "EP"
	case MR:
		return "MR"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// DefaultStart is the beginning of the CASAS trace period the paper
// replays (October 2013).
var DefaultStart = time.Date(2013, time.October, 1, 0, 0, 0, 0, time.UTC)

// Options configures a simulation run.
type Options struct {
	// Start is the first slot's instant; zero means DefaultStart.
	Start time.Time
	// Planner configures EP; ignored by the baselines.
	Planner core.Config
	// Formula selects the amortization plan; zero means EAF.
	Formula ecp.Formula
	// SaveMonths and SaveFraction configure BLAF when selected.
	SaveFraction float64
	SaveMonths   [12]bool
	// Savings scales the total budget down by the given fraction
	// (Fig. 9's energy-conservation sweep): budget × (1 − Savings).
	Savings float64
	// NoCarryOver disables the net-metering ledger that rolls unspent
	// slot budget forward: the replay then plans with a zero-cap
	// core.Ledger. The ledger is on by default: the paper's
	// amortization story is explicitly net-metering ("energy excess on
	// a sunny day can be used at later stages within a yearly cycle"),
	// and without it no hourly budget in a low-ECP month could afford
	// a single split-unit hour. The ablation bench exercises both.
	NoCarryOver bool
	// CarryCapHours bounds the ledger to this many mean-budget hours
	// (a rollover allowance, not a season-scale battery). Zero means
	// core.DefaultCarryCapHours; ablations may pass very large values
	// to approximate an unbounded ledger.
	CarryCapHours float64
	// PlanWindowHours is the EP decision granularity: the planner runs
	// once per window and its solution vector holds one bit per
	// meta-rule for the whole window, exactly the paper's s = ⟨s_1…s_N⟩
	// over the MRT (Fig. 4). Zero means DefaultPlanWindowHours (daily).
	// 1 gives per-slot decisions (an ablation). Baselines are
	// window-invariant.
	PlanWindowHours int
	// Workers bounds the worker pool of BuildWorkload's per-slot
	// precompute; above 1 it also turns on Run's window-problem
	// prefetch, one producer goroutine ahead of the EP consumer. Zero
	// means GOMAXPROCS; 1 forces the fully sequential fallback path.
	// Results are bit-identical for any value — only wall-clock changes.
	Workers int
	// Journal, when set, records one decision-provenance event per rule
	// verdict per EP plan window (see internal/journal). Events are
	// appended from the sequential consume loop after each window's plan
	// is final, so journaling cannot perturb results; baselines ignore
	// it (they make no planner decisions).
	Journal *journal.Journal
}

// DefaultPlanWindowHours is the default EP decision window: one day.
const DefaultPlanWindowHours = 24

func (o Options) withDefaults() Options {
	if o.Start.IsZero() {
		o.Start = DefaultStart
	}
	o.Planner = o.Planner.WithDefaults()
	// Planner.MaxIter zero means auto-scale: Run sets τ_max from the
	// rule count so the local search is meaningful at every dataset
	// scale (6 rules in the flat, 600 in the dorms).
	if o.Formula == 0 {
		o.Formula = ecp.EAF
	}
	if o.PlanWindowHours == 0 {
		o.PlanWindowHours = DefaultPlanWindowHours
	}
	return o
}

// workers resolves the effective worker count: Options.Workers, or
// GOMAXPROCS when unset.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is one run's outcome.
type Result struct {
	Algorithm Algorithm
	Dataset   string
	// Energy is F_E: total energy consumed over the period.
	Energy units.Energy
	// ConvenienceError is F_CE: the mean normalized error over all
	// active rule-slot pairs, as a percentage.
	ConvenienceError units.Percent
	// PlannerTime is F_T: CPU time spent inside the planning
	// algorithm (problem construction + search; not trace replay).
	PlannerTime time.Duration
	// Slots is the number of simulated hourly slots.
	Slots int
	// ActiveRuleSlots counts (rule, slot) pairs where the rule's
	// window was active; ExecutedRuleSlots of those executed.
	ActiveRuleSlots   int64
	ExecutedRuleSlots int64
	// BudgetTotal is the period budget EP planned against.
	BudgetTotal units.Energy
	// PerOwner attributes convenience error to rule owners (Table V).
	PerOwner map[string]units.Percent
}

// Workload is a residence's precomputed replay data: per-slot ambient
// conditions and environments, shared by all algorithm runs so that
// NR/IFTTT/EP/MR comparisons see identical traces.
type Workload struct {
	Residence *home.Residence
	Grid      *simclock.Grid
	Model     rules.ErrorModel

	mrt      []rules.MetaRule // the residence's meta-rules at build time
	ruleList []ruleStatic     // the convenience meta-rules, in table order
	byHour   [24][]int        // rule indices active at each hour of day

	// ambient[zone][slot] holds (temperature, light).
	ambient [][][2]float32
	envs    []rules.Env
}

type ruleStatic struct {
	mrt       int     // index into Workload.mrt
	energyKWh float64 // e_j for one hourly slot
	zone      int
	isTemp    bool
	desired   float64
	owner     string
	necessity bool
}

// RuleCount returns the number of convenience meta-rules in the
// workload, which control studies use to size the search budget.
func (w *Workload) RuleCount() int { return len(w.ruleList) }

// BuildWorkload precomputes the replay data for a residence.
func BuildWorkload(res *home.Residence, opts Options) (*Workload, error) {
	if res == nil {
		return nil, errors.New("sim: nil residence")
	}
	if err := res.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	end := opts.Start.AddDate(res.Years, 0, 0)
	grid, err := simclock.GridOver(opts.Start, end, time.Hour)
	if err != nil {
		return nil, err
	}

	w := &Workload{Residence: res, Grid: grid, Model: rules.DefaultErrorModel(), mrt: res.MRT.Rules}
	for i, r := range w.mrt {
		if r.IsBudget() {
			continue
		}
		dev, err := res.RuleDevice(r)
		if err != nil {
			return nil, err
		}
		rs := ruleStatic{
			mrt:       i,
			energyKWh: dev.EnergyPerSlot(time.Hour).KWh(),
			zone:      r.Zone,
			isTemp:    r.Action == rules.ActionSetTemperature,
			desired:   r.Value,
			owner:     r.Owner,
			necessity: r.Necessity,
		}
		idx := len(w.ruleList)
		w.ruleList = append(w.ruleList, rs)
		for h := 0; h < 24; h++ {
			if r.ActiveAt(h) {
				w.byHour[h] = append(w.byHour[h], idx)
			}
		}
	}

	// Precompute ambient per zone per slot and the IFTTT environment per
	// slot. Every slot is independent — the ambient and weather models
	// are pure functions of the instant — so the fill is sharded over a
	// bounded worker pool; each worker owns a disjoint slot range, which
	// keeps the result bit-identical to a sequential fill.
	n := grid.Len()
	w.ambient = make([][][2]float32, len(res.Zones))
	for z := range res.Zones {
		w.ambient[z] = make([][2]float32, n)
	}
	w.envs = make([]rules.Env, n)

	workers := opts.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minParallelSlots {
		w.fillSlots(0, n)
		return w, nil
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			w.fillSlots(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return w, nil
}

// minParallelSlots is the grid size below which sharding the precompute
// costs more than it saves.
const minParallelSlots = 512

// fillSlots computes the ambient and environment precompute for the slot
// range [lo, hi). Ranges are disjoint across workers.
//
//imcf:noalloc
func (w *Workload) fillSlots(lo, hi int) {
	res := w.Residence
	for i := lo; i < hi; i++ {
		slot := w.Grid.Slot(i)
		for z, zone := range res.Zones {
			a := zone.Ambient.AmbientAt(slot.Start)
			w.ambient[z][i] = [2]float32{float32(a.Temperature), float32(a.Light)}
		}
		obs := res.Weather.At(slot.Start.Add(30 * time.Minute))
		w.envs[i] = rules.Env{
			Season:      obs.Season,
			Condition:   obs.Condition,
			OutdoorTemp: obs.Temperature.Celsius(),
			Light:       float64(w.ambient[0][i][1]),
			DoorOpen:    doorOpen(res.Name, slot),
		}
	}
}

// doorOpen deterministically marks some waking-hour slots as having the
// door open, standing in for the CASAS door/window sensor stream.
//
//imcf:noalloc
func doorOpen(name string, slot simclock.Slot) bool {
	h := slot.HourOfDay()
	if h < 7 || h > 21 {
		return false
	}
	x := uint64(slot.Start.Unix()/3600) * 0x9E3779B97F4A7C15
	for _, c := range name {
		x ^= uint64(c) * 0xBF58476D1CE4E5B9
	}
	x ^= x >> 33
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 33
	return x%100 < 22 // ≈ a fifth of waking hours see a door event
}

// dropError returns ce for ignoring rule r during slot i: the deviation
// between the desired output and the ambient value.
//
//imcf:noalloc
func (w *Workload) dropError(r *ruleStatic, i int) float64 {
	amb := w.ambient[r.zone][i]
	if r.isTemp {
		return w.Model.Error(rules.ActionSetTemperature, r.desired, float64(amb[0]))
	}
	return w.Model.Error(rules.ActionSetLight, r.desired, float64(amb[1]))
}

// Run replays the workload through an algorithm.
func Run(w *Workload, alg Algorithm, opts Options) (Result, error) {
	opts = opts.withDefaults()
	res := Result{
		Algorithm: alg,
		Dataset:   w.Residence.Name,
		Slots:     w.Grid.Len(),
		PerOwner:  make(map[string]units.Percent),
	}

	plan := ecp.Plan{
		Formula:      opts.Formula,
		Profile:      w.Residence.Profile,
		Budget:       units.Energy(w.Residence.Budget.KWh() * (1 - opts.Savings)),
		Years:        w.Residence.Years,
		SaveFraction: opts.SaveFraction,
		SaveMonths:   opts.SaveMonths,
	}
	if opts.Savings < 0 || opts.Savings >= 1 {
		return res, fmt.Errorf("sim: savings fraction %v outside [0,1)", opts.Savings)
	}
	if err := plan.Validate(); err != nil {
		return res, err
	}
	res.BudgetTotal = plan.TotalBudget()

	// Hourly budgets per month, precomputed.
	var hourlyBudget [13]float64
	for m := time.January; m <= time.December; m++ {
		b, err := plan.HourlyBudget(m)
		if err != nil {
			return res, err
		}
		hourlyBudget[m] = b.KWh()
	}
	meanHourly := plan.TotalBudget().KWh() / float64(w.Residence.Years*ecp.HoursPerYear)
	ledger, err := core.NewLedger(meanHourly, opts.CarryCapHours)
	if err != nil {
		return res, err
	}
	if opts.NoCarryOver {
		ledger = core.Ledger{}
	}
	if opts.PlanWindowHours < 1 {
		return res, fmt.Errorf("sim: plan window %d must be ≥ 1 hour", opts.PlanWindowHours)
	}

	var planner *core.Planner
	if alg == EP {
		if opts.Planner.MaxIter == 0 {
			opts.Planner.MaxIter = autoMaxIter(len(w.ruleList))
		}
		planner, err = core.NewPlanner(opts.Planner)
		if err != nil {
			return res, err
		}
	}

	acc := &runAccumulator{
		ownerErr:    make(map[string]float64),
		ownerActive: make(map[string]int64),
	}
	if alg == EP {
		err = w.runEP(planner, opts, hourlyBudget, ledger, acc)
	} else {
		err = w.runPerSlot(alg, acc)
	}
	if err != nil {
		return res, err
	}

	res.Energy = units.Energy(acc.totalEnergy)
	res.PlannerTime = acc.plannerTime
	res.ActiveRuleSlots = acc.active
	res.ExecutedRuleSlots = acc.executed

	// Fold the run into the process-wide serving metrics. Done once per
	// run, after the replay, so instrumentation never touches the
	// (possibly pipelined) hot loops and cannot perturb results.
	metrics.RulesConsidered.Add(uint64(acc.active))
	metrics.RulesExecuted.Add(uint64(acc.executed))
	metrics.RulesDropped.Add(uint64(acc.active - acc.executed))
	metrics.EnergyConsumedKWh.Add(acc.totalEnergy)
	metrics.ConvenienceErrorSum.Add(acc.totalError)
	if acc.active > 0 {
		res.ConvenienceError = units.FromFraction(acc.totalError / float64(acc.active))
	}
	for owner, sum := range acc.ownerErr {
		if acc.ownerActive[owner] > 0 {
			res.PerOwner[owner] = units.FromFraction(sum / float64(acc.ownerActive[owner]))
		}
	}
	return res, nil
}

// autoMaxIter scales τ_max with the number of meta-rules so the local
// search is near-convergent — but not exhaustively converged — at every
// dataset scale, which is the regime where the paper's k-opt and
// initialization effects (Figs. 7–8) are visible.
func autoMaxIter(rules int) int {
	iter := 10 * rules
	if iter < 50 {
		return 50
	}
	if iter > 4000 {
		return 4000
	}
	return iter
}

// runAccumulator gathers metrics across the replay loops.
type runAccumulator struct {
	totalEnergy float64
	totalError  float64
	active      int64
	executed    int64
	ownerErr    map[string]float64
	ownerActive map[string]int64
	plannerTime time.Duration
}

// winRule is one rule's trace-derived aggregate over a decision window.
type winRule struct {
	ri      int // index into Workload.ruleList
	slots   int64
	energy  float64
	dropErr float64
}

// windowProblem is one EP decision window's planning input. Everything
// in it depends only on the trace — never on the net-metering ledger —
// which is what makes windows buildable ahead of the strictly
// sequential ledger/search loop.
type windowProblem struct {
	w0, wEnd   int
	hourBudget float64 // Σ amortized slot budgets over the window
	necessity  float64 // energy committed to necessity rules
	// present holds the active rules: first those that compete for
	// budget, aligned with costs (the planner input) and rules (their
	// MRT indices, for the journal), then the necessity rules, each
	// group in first-occurrence order.
	present   []winRule
	costs     []core.RuleCost
	rules     []int
	buildTime time.Duration
}

// winScratch is one window builder's dense per-rule accumulation
// scratch, reused across the windows the builder owns.
type winScratch struct {
	energy  []float64
	dropErr []float64
	slots   []int64
	order   []int
}

func newWinScratch(nRules int) *winScratch {
	return &winScratch{
		energy:  make([]float64, nRules),
		dropErr: make([]float64, nRules),
		slots:   make([]int64, nRules),
		order:   make([]int, 0, nRules),
	}
}

// buildWindow aggregates the window [w0, wEnd) into wp. Both the
// sequential fallback and the prefetch producer run exactly this code,
// with identical float accumulation order, so the two paths are
// bit-identical by construction.
//
//imcf:noalloc
func (w *Workload) buildWindow(wp *windowProblem, scr *winScratch, hourlyBudget *[13]float64, w0, wEnd int) {
	//imcf:allow determinism wall-clock build latency feeds metrics only, never simulation results
	start := time.Now()
	wp.w0, wp.wEnd = w0, wEnd
	wp.hourBudget, wp.necessity = 0, 0
	wp.present = wp.present[:0]
	wp.costs = wp.costs[:0]
	wp.rules = wp.rules[:0]

	order := scr.order[:0]
	for i := w0; i < wEnd; i++ {
		slot := w.Grid.Slot(i)
		wp.hourBudget += hourlyBudget[slot.Month()]
		for _, ri := range w.byHour[slot.HourOfDay()] {
			if scr.slots[ri] == 0 {
				order = append(order, ri)
			}
			r := &w.ruleList[ri]
			scr.slots[ri]++
			scr.energy[ri] += r.energyKWh
			scr.dropErr[ri] += w.dropError(r, i)
		}
	}
	scr.order = order

	// The rules the planner weighs lead present.
	for _, ri := range order {
		if !w.ruleList[ri].necessity {
			wp.present = append(wp.present, winRule{ri: ri, slots: scr.slots[ri], energy: scr.energy[ri], dropErr: scr.dropErr[ri]})
			wp.costs = append(wp.costs, core.RuleCost{DropError: scr.dropErr[ri], Energy: scr.energy[ri]})
			wp.rules = append(wp.rules, w.ruleList[ri].mrt)
		}
	}
	// Necessity rules execute unconditionally: their energy is committed
	// before the convenience rules compete for what is left of the
	// window budget.
	for _, ri := range order {
		if w.ruleList[ri].necessity {
			wp.present = append(wp.present, winRule{ri: ri, slots: scr.slots[ri], energy: scr.energy[ri], dropErr: scr.dropErr[ri]})
			wp.necessity += scr.energy[ri]
		}
		// Reset dense scratch for the builder's next window.
		scr.energy[ri], scr.dropErr[ri], scr.slots[ri] = 0, 0, 0
	}
	//imcf:allow determinism wall-clock build latency feeds metrics only, never simulation results
	wp.buildTime = time.Since(start)
}

// ledgerState is the sequential part of the EP replay: the carry-over
// ledger and the planner invocation that consumes it, window by window
// in order.
type ledgerState struct {
	planner *core.Planner
	opts    Options
	ledger  core.Ledger
	// rec, when non-nil, is the provenance recorder bound to each window
	// just before its plan runs (journaling replay mode).
	rec *journal.Recorder
}

// consumeWindow runs the planner over one prepared window and folds the
// outcome into the accumulator. It must be called in window order: the
// ledger carry and the planner's RNG both advance here.
//
//imcf:noalloc
func (w *Workload) consumeWindow(ls *ledgerState, wp *windowProblem, acc *runAccumulator) error {
	//imcf:allow determinism wall-clock planner latency feeds metrics only, never simulation results
	start := time.Now()
	budget := ls.ledger.Budget(wp.hourBudget)
	if ls.rec != nil {
		ls.rec.Bind(w.Grid.Slot(wp.w0).Start, wp.w0/ls.opts.PlanWindowHours, "", w.mrt, wp.rules)
	}
	sol, eval, err := ls.planner.Plan(ls.ledger.Problem(wp.costs, budget, wp.necessity))
	if err != nil {
		return err
	}
	//imcf:allow determinism wall-clock planner latency feeds metrics only, never simulation results
	d := wp.buildTime + time.Since(start)
	acc.plannerTime += d
	metrics.PlannerWindowSeconds.Observe(d.Seconds())

	spent := eval.Energy + wp.necessity
	acc.totalEnergy += spent
	ls.ledger.Settle(budget, spent)
	for j := range wp.costs {
		wr := &wp.present[j]
		if sol[j] {
			acc.executed += wr.slots
		} else {
			acc.totalError += wr.dropErr
			acc.ownerErr[w.ruleList[wr.ri].owner] += wr.dropErr
		}
	}
	for i := range wp.present {
		wr := &wp.present[i]
		r := &w.ruleList[wr.ri]
		acc.active += wr.slots
		acc.ownerActive[r.owner] += wr.slots
		if r.necessity {
			acc.executed += wr.slots
		}
	}
	return nil
}

// runEP replays the Energy Planner: one invocation per plan window, one
// activation bit per meta-rule for the whole window (the paper's
// s = ⟨s_1 … s_N⟩ over the MRT), constrained by the window's amortized
// budget plus the bounded ledger.
//
// Window problems depend only on the trace, so their construction is
// pipelined: one producer builds windows ahead of the consumer, while
// the ledger/search loop itself stays strictly sequential — the
// carry-over budget and the planner RNG both thread state from window
// to window.
func (w *Workload) runEP(planner *core.Planner, opts Options, hourlyBudget [13]float64, ledger core.Ledger, acc *runAccumulator) error {
	n := w.Grid.Len()
	window := opts.PlanWindowHours
	nWindows := (n + window - 1) / window
	ls := &ledgerState{planner: planner, opts: opts, ledger: ledger}
	if opts.Journal != nil {
		ls.rec = journal.NewRecorder(opts.Journal)
		planner.SetRecorder(ls.rec)
	}

	if opts.workers() <= 1 || nWindows < 2 {
		// Sequential fallback: build and consume inline.
		wp := &windowProblem{}
		scr := newWinScratch(len(w.ruleList))
		for w0 := 0; w0 < n; w0 += window {
			wEnd := min(w0+window, n)
			w.buildWindow(wp, scr, &hourlyBudget, w0, wEnd)
			if err := w.consumeWindow(ls, wp, acc); err != nil {
				return err
			}
		}
		return nil
	}
	return w.runEPPipelined(ls, acc, hourlyBudget)
}

// prefetchDepth is how many window problems the pipeline holds: the
// producer runs at most this many windows ahead of the consumer. It is
// sized to the producer's wake-up latency, not to memory: a producer
// woken late finds several free buffers and builds them in one run, so
// the consumer neither runs dry nor pays a wake-up per window. At 4, on
// 2 vCPUs, the House replay at Workers 2 was slower than at Workers 1.
const prefetchDepth = 16

// runEPPipelined overlaps window-problem construction with the
// sequential ledger/search loop. One producer goroutine builds the
// windows in order, each into a buffer taken from a free list of
// prefetchDepth windowProblems, and sends it over one channel; the
// consumer returns each buffer once its window is folded in. The built
// channel holds every buffer, so the producer only ever waits for a free
// one. On a consumer error the producer stops at its next buffer, and
// the consumer drains built until the producer closes it on exit.
func (w *Workload) runEPPipelined(ls *ledgerState, acc *runAccumulator, hourlyBudget [13]float64) error {
	n := w.Grid.Len()
	window := ls.opts.PlanWindowHours

	free := make(chan *windowProblem, prefetchDepth)
	for range prefetchDepth {
		free <- &windowProblem{}
	}
	built := make(chan *windowProblem, prefetchDepth)
	stop := make(chan struct{})
	go func() {
		defer close(built)
		scr := newWinScratch(len(w.ruleList))
		for w0 := 0; w0 < n; w0 += window {
			var wp *windowProblem
			select {
			case wp = <-free:
			case <-stop:
				return
			}
			w.buildWindow(wp, scr, &hourlyBudget, w0, min(w0+window, n))
			built <- wp
		}
	}()

	var err error
	for wp := range built {
		if err != nil {
			continue // draining: the producer is stopping
		}
		if err = w.consumeWindow(ls, wp, acc); err != nil {
			close(stop)
			continue
		}
		free <- wp
	}
	return err
}

// runPerSlot replays the window-invariant baselines slot by slot. The
// problem, solution and IFTTT output table are scratch reused across
// slots, keeping the inner loop allocation-free.
func (w *Workload) runPerSlot(alg Algorithm, acc *runAccumulator) error {
	n := w.Grid.Len()
	var problem core.Problem
	var sol core.Solution
	var outputs map[rules.Action]float64
	for i := 0; i < n; i++ {
		slot := w.Grid.Slot(i)
		idx := w.byHour[slot.HourOfDay()]
		if len(idx) == 0 {
			continue
		}
		problem.Costs = problem.Costs[:0]
		for _, ri := range idx {
			r := &w.ruleList[ri]
			problem.Costs = append(problem.Costs, core.RuleCost{
				DropError: w.dropError(r, i),
				Energy:    r.energyKWh,
			})
		}

		var eval core.Eval
		//imcf:allow determinism wall-clock per-slot latency feeds metrics only, never simulation results
		start := time.Now()
		switch alg {
		case NR:
			sol, eval = core.NoRuleInto(problem, sol)
		case MR:
			sol, eval = core.MetaRuleAllInto(problem, sol)
		case IFTTT:
			outputs = rules.Outputs(w.Residence.IFTTT, w.envs[i])
			sol, eval = w.iftttSlot(problem, idx, outputs, sol)
		default:
			return fmt.Errorf("sim: unknown algorithm %v", alg)
		}
		//imcf:allow determinism wall-clock per-slot latency feeds metrics only, never simulation results
		d := time.Since(start)
		acc.plannerTime += d
		metrics.PlannerWindowSeconds.Observe(d.Seconds())

		acc.totalEnergy += eval.Energy
		acc.active += int64(len(idx))
		for j, ri := range idx {
			r := &w.ruleList[ri]
			var ce float64
			if sol[j] {
				acc.executed++
				if alg == IFTTT {
					ce = w.iftttMismatch(r, outputs)
				}
			} else {
				ce = problem.Costs[j].DropError
			}
			acc.totalError += ce
			acc.ownerErr[r.owner] += ce
			acc.ownerActive[r.owner]++
		}
	}
	return nil
}

// iftttSlot models the trigger-action baseline for one slot: every zone
// device whose action kind the IFTTT table sets is actuated (consuming
// its energy), regardless of budget; rules whose action kind the table
// does not set fall back to ambient (dropped). outputs is the slot's
// resolved trigger-action table, computed once by the caller and shared
// with the mismatch scoring.
//
//imcf:noalloc
func (w *Workload) iftttSlot(p core.Problem, idx []int, outputs map[rules.Action]float64, sol core.Solution) (core.Solution, core.Eval) {
	if cap(sol) < len(idx) {
		sol = make(core.Solution, len(idx))
	}
	sol = sol[:len(idx)]
	var eval core.Eval
	for j, ri := range idx {
		r := &w.ruleList[ri]
		action := rules.ActionSetLight
		if r.isTemp {
			action = rules.ActionSetTemperature
		}
		if _, ok := outputs[action]; ok {
			sol[j] = true
			eval.Energy += p.Costs[j].Energy
		} else {
			sol[j] = false
			eval.Error += p.Costs[j].DropError
		}
	}
	return sol, eval
}

// iftttMismatch is the convenience error of an executed IFTTT action:
// the deviation between the MRT-desired output and the IFTTT-set output.
func (w *Workload) iftttMismatch(r *ruleStatic, outputs map[rules.Action]float64) float64 {
	action := rules.ActionSetLight
	if r.isTemp {
		action = rules.ActionSetTemperature
	}
	set, ok := outputs[action]
	if !ok {
		return 0
	}
	return w.Model.Error(action, r.desired, set)
}
