// Package core implements the paper's primary contribution: the Energy
// Planner (EP), the AI-inspired search that selects which meta-rules to
// execute in a time slot so that convenience error is minimized subject
// to the amortized energy budget E_p (Algorithm 1 of the paper).
//
// The planner operates on an abstract per-slot Problem — each active
// rule's drop error (the convenience lost when the rule is ignored) and
// execution energy — which the simulation layer derives from traces,
// rules and device ratings. A solution is the paper's binary vector
// s = ⟨s_1 … s_N⟩: s_i = 1 executes meta-rule i, s_i = 0 ignores it.
//
// Besides the paper's k-opt hill climbing, the package provides the NR
// and MR baselines, a simulated-annealing variant (the paper notes "any
// heuristic or meta-heuristic approach can be utilized in the EP
// optimization step"), and an exhaustive optimum for small N used to
// bound the heuristics in tests and ablations.
package core

import (
	"fmt"
	"math/rand/v2"

	"github.com/imcf/imcf/internal/metrics"
)

// RuleCost describes one rule that is active in the current slot.
type RuleCost struct {
	// DropError is the convenience error ce incurred if the rule is
	// ignored this slot (0 when ambient already satisfies the user).
	DropError float64
	// Energy is e_j: the energy consumed if the rule executes (kWh).
	Energy float64
}

// Problem is one slot's planning input.
type Problem struct {
	// Costs lists the active rules.
	Costs []RuleCost
	// Budget is E_p: the slot's energy allowance in kWh.
	Budget float64
}

// Validate reports whether the problem is well-formed.
func (p Problem) Validate() error {
	if p.Budget < 0 {
		return fmt.Errorf("core: negative budget %v", p.Budget)
	}
	for i, c := range p.Costs {
		if c.DropError < 0 || c.Energy < 0 {
			return fmt.Errorf("core: rule %d has negative cost (%+v)", i, c)
		}
	}
	return nil
}

// Solution is the binary activation vector s: Solution[i] reports
// whether rule i executes.
type Solution []bool

// Clone returns a copy of the solution.
func (s Solution) Clone() Solution {
	out := make(Solution, len(s))
	copy(out, s)
	return out
}

// CountOn returns the number of executed rules.
func (s Solution) CountOn() int {
	n := 0
	for _, b := range s {
		if b {
			n++
		}
	}
	return n
}

// Eval is a solution's objective values: F_E (energy) and F_CE (error),
// both summed over the slot's rules.
type Eval struct {
	Energy float64
	Error  float64
}

// Feasible reports whether the evaluation satisfies F_E ≤ budget.
func (e Eval) Feasible(budget float64) bool { return e.Energy <= budget+1e-12 }

// Evaluate computes a solution's objectives against a problem.
// It panics if the lengths differ, which indicates a programming error.
//
//imcf:noalloc
func Evaluate(p Problem, s Solution) Eval {
	if len(s) != len(p.Costs) {
		//imcf:allow noalloc panic path only; unreachable in a correct program
		panic(fmt.Sprintf("core: solution length %d != problem size %d", len(s), len(p.Costs)))
	}
	var e Eval
	for i, on := range s {
		if on {
			e.Energy += p.Costs[i].Energy
		} else {
			e.Error += p.Costs[i].DropError
		}
	}
	return e
}

// InitStrategy selects the initial solution of the local search
// (Fig. 8's experiment dimensions).
type InitStrategy int

// Initialization strategies.
const (
	// InitAllOn starts from the all-1s vector: every rule executes
	// ("greedily triggered, favoring the convenience error objective").
	InitAllOn InitStrategy = iota + 1
	// InitRandom starts from a uniformly random vector.
	InitRandom
	// InitAllOff starts from the all-0s vector.
	InitAllOff
)

// String returns the strategy name as used in Fig. 8.
func (s InitStrategy) String() string {
	switch s {
	case InitAllOn:
		return "all-1s"
	case InitRandom:
		return "random"
	case InitAllOff:
		return "all-0s"
	default:
		return fmt.Sprintf("InitStrategy(%d)", int(s))
	}
}

// Heuristic selects the optimization engine inside EP.
type Heuristic int

// Available optimization engines.
const (
	// HillClimb is the paper's k-opt hill-climbing local search.
	HillClimb Heuristic = iota + 1
	// Anneal is a simulated-annealing variant with the same k-flip
	// neighbourhood.
	Anneal
	// Exhaustive enumerates all 2^N solutions (N ≤ ExhaustiveMaxN).
	Exhaustive
)

// String returns the heuristic name.
func (h Heuristic) String() string {
	switch h {
	case HillClimb:
		return "hill-climb"
	case Anneal:
		return "anneal"
	case Exhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// ExhaustiveMaxN bounds the exhaustive engine's problem size.
const ExhaustiveMaxN = 24

// Config parameterizes the Energy Planner.
type Config struct {
	// K is the number of components flipped per iteration (k-opt).
	K int
	// MaxIter is τ_max, the iteration budget of the local search.
	MaxIter int
	// Init selects the initial solution.
	Init InitStrategy
	// Heuristic selects the optimization engine. Zero value means
	// HillClimb.
	Heuristic Heuristic
	// Seed seeds the planner's deterministic RNG.
	Seed uint64
	// KeepZeroGain, when false (the default), forces rules whose
	// DropError is zero to stay off: executing them burns budget
	// without improving convenience. This is one of the
	// domain-specific operators the paper's EP exploits. Set true to
	// disable the pruning (used by ablations).
	KeepZeroGain bool
	// DisableRepair skips the final greedy feasibility repair, leaving
	// exactly the paper's Algorithm 1 acceptance loop (used by
	// ablations).
	DisableRepair bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("core: k = %d must be ≥ 1", c.K)
	}
	if c.MaxIter < 0 {
		return fmt.Errorf("core: max iterations %d negative", c.MaxIter)
	}
	if c.Init < InitAllOn || c.Init > InitAllOff {
		return fmt.Errorf("core: invalid init strategy %d", c.Init)
	}
	h := c.Heuristic
	if h == 0 {
		h = HillClimb
	}
	if h < HillClimb || h > Exhaustive {
		return fmt.Errorf("core: invalid heuristic %d", c.Heuristic)
	}
	return nil
}

// DefaultConfig returns the evaluation defaults: 4-opt hill climbing,
// 100 iterations, all-1s initialization.
func DefaultConfig() Config {
	return Config{K: 4, MaxIter: 100, Init: InitAllOn, Heuristic: HillClimb}
}

// WithDefaults fills K and Init from DefaultConfig where they are zero,
// field by field, so a configuration that sets only its seed or one
// option keeps it. A zero Heuristic already means HillClimb. MaxIter is
// left as it is: each caller gives zero its own meaning.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.K == 0 {
		c.K = d.K
	}
	if c.Init == 0 {
		c.Init = d.Init
	}
	return c
}

// Planner runs the EP search. It is reusable across slots and carries a
// deterministic RNG; it is not safe for concurrent use (create one
// planner per goroutine).
//
// To keep the per-window hot path allocation-free, Plan and PlanFair
// return a Solution backed by planner-owned scratch that is overwritten
// by the next Plan/PlanFair call. Callers that retain a solution across
// calls must Clone it first.
type Planner struct {
	cfg Config
	rng *rand.Rand
	// scratch buffers reused across Plan calls: the incumbent solution
	// (returned to the caller), annealing's second solution, the
	// flippable index set, the per-iteration flip picks, and repair's
	// candidate list.
	sol    Solution
	solB   Solution
	idx    []int
	flips  []int
	repair []repairCand
	// flipIter[i] is the k-opt iteration that last flipped bit i in the
	// current plan, or a Flip* sentinel — provenance for DecisionRecorder.
	flipIter []int
	// rec, when non-nil, receives one callback per rule after each
	// Plan/PlanFair call (see recorder.go).
	rec DecisionRecorder
}

// NewPlanner validates the configuration and returns a planner.
func NewPlanner(cfg Config) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Heuristic == 0 {
		cfg.Heuristic = HillClimb
	}
	return &Planner{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9E3779B97F4A7C15)),
	}, nil
}

// Config returns the planner's configuration.
func (pl *Planner) Config() Config { return pl.cfg }

// Plan computes an energy plan for the slot: the activation vector and
// its evaluation. The returned solution satisfies the budget whenever a
// feasible solution exists (all-0s always is, since energy costs are
// non-negative).
//
// The returned Solution aliases planner-owned scratch and is valid only
// until the next Plan/PlanFair call on this planner; Clone it to retain.
func (pl *Planner) Plan(p Problem) (Solution, Eval, error) {
	if err := p.Validate(); err != nil {
		return nil, Eval{}, err
	}
	n := len(p.Costs)
	if n == 0 {
		return Solution{}, Eval{}, nil
	}

	metrics.PlannerPlans.Inc()
	pl.resetFlipIter(n)
	switch pl.cfg.Heuristic {
	case Exhaustive:
		if n > ExhaustiveMaxN {
			return nil, Eval{}, fmt.Errorf("core: exhaustive search limited to N ≤ %d, got %d", ExhaustiveMaxN, n)
		}
		s, e := exhaustive(p, pl.cfg.KeepZeroGain)
		pl.emit(p, s, e)
		return s, e, nil
	case Anneal:
		s, e := pl.anneal(p)
		pl.emit(p, s, e)
		return s, e, nil
	default:
		s, e := pl.hillClimb(p)
		pl.emit(p, s, e)
		return s, e, nil
	}
}

// init builds the initial solution per the configured strategy, with
// zero-gain rules forced off unless KeepZeroGain is set. The result is
// backed by the planner's solution scratch.
//
//imcf:noalloc
func (pl *Planner) initial(p Problem) Solution {
	n := len(p.Costs)
	if cap(pl.sol) < n {
		pl.sol = make(Solution, n)
	}
	s := pl.sol[:n]
	switch pl.cfg.Init {
	case InitAllOn:
		for i := range s {
			s[i] = true
		}
	case InitRandom:
		for i := range s {
			s[i] = pl.rng.Uint64()&1 == 1
		}
	default:
		for i := range s {
			s[i] = false
		}
	}
	if !pl.cfg.KeepZeroGain {
		for i, c := range p.Costs {
			if c.DropError == 0 {
				s[i] = false
			}
		}
	}
	return s
}

// flippable returns the indices the search may flip: all of them, or
// only the useful ones when zero-gain pruning is on. The result is
// backed by the planner's index scratch.
//
//imcf:noalloc
func (pl *Planner) flippable(p Problem) []int {
	if cap(pl.idx) < len(p.Costs) {
		pl.idx = make([]int, 0, len(p.Costs))
	}
	idx := pl.idx[:0]
	for i, c := range p.Costs {
		if pl.cfg.KeepZeroGain || c.DropError > 0 {
			idx = append(idx, i)
		}
	}
	pl.idx = idx
	return idx
}

// hillClimb is Algorithm 1's EP routine: flip k uniformly random
// components of the incumbent s*, accept when the candidate is feasible
// and strictly better. While the incumbent itself is infeasible (e.g.
// from an over-budget all-1s initialization), candidates that reduce
// energy are accepted instead, driving the search into the feasible
// region — Algorithm 1 as printed would otherwise never leave an
// infeasible initial solution, since no candidate can beat its zero
// convenience error.
//
//imcf:noalloc
func (pl *Planner) hillClimb(p Problem) (Solution, Eval) {
	best := pl.initial(p)
	bestEval := Evaluate(p, best)
	idx := pl.flippable(p)

	if len(idx) > 0 {
		k := pl.cfg.K
		if k > len(idx) {
			k = len(idx)
		}
		if cap(pl.flips) < k {
			pl.flips = make([]int, k)
		}

		for iter := 0; iter < pl.cfg.MaxIter; iter++ {
			// Choose up to k distinct components among the flippable
			// ones ("neighborhoods that involve changing up to k
			// components of the solution").
			flips := pl.flips[:1+pl.rng.IntN(k)]
			pl.sampleDistinct(idx, flips)
			// Incrementally evaluate the candidate.
			cand := bestEval
			for _, i := range flips {
				if best[i] {
					cand.Energy -= p.Costs[i].Energy
					cand.Error += p.Costs[i].DropError
				} else {
					cand.Energy += p.Costs[i].Energy
					cand.Error -= p.Costs[i].DropError
				}
			}
			if accept(cand, bestEval, p.Budget) {
				for _, i := range flips {
					best[i] = !best[i]
					pl.flipIter[i] = iter
				}
				bestEval = cand
			}
		}
		// One amortized add per Plan call, not one per iteration: the
		// counter stays off the per-flip path.
		metrics.PlannerIterations.Add(uint64(pl.cfg.MaxIter))
	}

	// Recompute exactly: the incremental updates accumulate float
	// rounding over many iterations.
	bestEval = Evaluate(p, best)
	if !pl.cfg.DisableRepair && !bestEval.Feasible(p.Budget) {
		bestEval = pl.repairFeasible(p, best, bestEval)
	}
	return best, bestEval
}

// accept implements the (repaired) Algorithm 1 acceptance rule:
// feasibility first, then strictly lower convenience error; ties on
// error prefer lower energy so the planner does not waste budget.
//
//imcf:noalloc
func accept(cand, incumbent Eval, budget float64) bool {
	candFeas := cand.Feasible(budget)
	incFeas := incumbent.Feasible(budget)
	switch {
	case candFeas && !incFeas:
		return true
	case !candFeas && incFeas:
		return false
	case candFeas: // both feasible
		if cand.Error != incumbent.Error {
			return cand.Error < incumbent.Error
		}
		return cand.Energy < incumbent.Energy
	default: // both infeasible: descend in energy
		return cand.Energy < incumbent.Energy
	}
}

// repairCand is one executed rule considered by the greedy repair.
type repairCand struct {
	idx   int
	ratio float64
}

// repairFeasible greedily switches off executed rules in increasing
// order of error-per-kWh until the budget holds, guaranteeing a feasible
// result. The candidate list lives in planner scratch.
//
//imcf:noalloc
func (pl *Planner) repairFeasible(p Problem, s Solution, e Eval) Eval {
	if cap(pl.repair) < len(s) {
		pl.repair = make([]repairCand, 0, len(s))
	}
	on := pl.repair[:0]
	for i, b := range s {
		if b {
			c := p.Costs[i]
			r := 0.0
			if c.Energy > 0 {
				r = c.DropError / c.Energy
			}
			on = append(on, repairCand{idx: i, ratio: r})
		}
	}
	// Selection by repeated minimum keeps this dependency-free and the
	// slices are small (N active rules).
	for !e.Feasible(p.Budget) && len(on) > 0 {
		minAt := 0
		for j := 1; j < len(on); j++ {
			if on[j].ratio < on[minAt].ratio {
				minAt = j
			}
		}
		i := on[minAt].idx
		s[i] = false
		if i < len(pl.flipIter) {
			pl.flipIter[i] = FlipRepair
		}
		e.Energy -= p.Costs[i].Energy
		e.Error += p.Costs[i].DropError
		on[minAt] = on[len(on)-1]
		on = on[:len(on)-1]
	}
	return e
}

// sampleDistinct fills out with distinct elements drawn uniformly from
// idx. When len(out) is a large fraction of len(idx) it uses a partial
// Fisher–Yates over a copy; otherwise rejection sampling.
//
//imcf:noalloc
func (pl *Planner) sampleDistinct(idx []int, out []int) {
	k, n := len(out), len(idx)
	if k*3 >= n {
		// Partial Fisher–Yates over the shared slice: swap chosen
		// elements to the front, then swap back to keep idx stable.
		for i := 0; i < k; i++ {
			j := i + pl.rng.IntN(n-i)
			idx[i], idx[j] = idx[j], idx[i]
			out[i] = idx[i]
		}
		return
	}
	for i := 0; i < k; i++ {
	retry:
		c := idx[pl.rng.IntN(n)]
		for j := 0; j < i; j++ {
			if out[j] == c {
				goto retry
			}
		}
		out[i] = c
	}
}

// exhaustive enumerates every activation vector and returns the optimum:
// the feasible solution with minimal error, ties broken by lower energy.
func exhaustive(p Problem, keepZeroGain bool) (Solution, Eval) {
	n := len(p.Costs)
	bestMask := uint32(0)
	best := Eval{Error: totalError(p)} // all-0s is always feasible
	for mask := uint32(1); mask < 1<<n; mask++ {
		var e Eval
		skip := false
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				if !keepZeroGain && p.Costs[i].DropError == 0 {
					skip = true
					break
				}
				e.Energy += p.Costs[i].Energy
			} else {
				e.Error += p.Costs[i].DropError
			}
		}
		if skip || !e.Feasible(p.Budget) {
			continue
		}
		if e.Error < best.Error || (e.Error == best.Error && e.Energy < best.Energy) {
			best, bestMask = e, mask
		}
	}
	s := make(Solution, n)
	for i := 0; i < n; i++ {
		s[i] = bestMask>>i&1 == 1
	}
	return s, best
}

func totalError(p Problem) float64 {
	var sum float64
	for _, c := range p.Costs {
		sum += c.DropError
	}
	return sum
}

// NoRule is the NR baseline: ignore every meta-rule. F_E is zero and
// F_CE is maximal.
func NoRule(p Problem) (Solution, Eval) {
	return NoRuleInto(p, nil)
}

// NoRuleInto is NoRule writing into s, reusing its capacity so per-slot
// replay loops stay allocation-free.
//
//imcf:noalloc
func NoRuleInto(p Problem, s Solution) (Solution, Eval) {
	s = resizeSolution(s, len(p.Costs))
	for i := range s {
		s[i] = false
	}
	return s, Eval{Error: totalError(p)}
}

// MetaRuleAll is the MR baseline: execute every meta-rule greedily,
// ignoring the budget. F_CE is zero and F_E is maximal.
func MetaRuleAll(p Problem) (Solution, Eval) {
	return MetaRuleAllInto(p, nil)
}

// MetaRuleAllInto is MetaRuleAll writing into s, reusing its capacity.
//
//imcf:noalloc
func MetaRuleAllInto(p Problem, s Solution) (Solution, Eval) {
	s = resizeSolution(s, len(p.Costs))
	var e Eval
	for i := range s {
		s[i] = true
		e.Energy += p.Costs[i].Energy
	}
	return s, e
}

// resizeSolution returns s with length n, reallocating only when the
// capacity is insufficient.
//
//imcf:noalloc
func resizeSolution(s Solution, n int) Solution {
	if cap(s) < n {
		return make(Solution, n)
	}
	return s[:n]
}
