package core

import (
	"math"

	"github.com/imcf/imcf/internal/metrics"
)

// anneal is the simulated-annealing engine: the same k-flip
// neighbourhood as hill climbing, but worse candidates are accepted with
// probability exp(−Δ/T) under a geometric cooling schedule. Budget
// violations enter the score as a linear penalty so the walk can cross
// infeasible ridges; the returned solution is repaired to feasibility.
//
// The paper's EP uses hill climbing but notes that "any heuristic or
// meta-heuristic approach can be utilized in the EP optimization step";
// this engine backs that claim and the heuristic ablation bench.
func (pl *Planner) anneal(p Problem) (Solution, Eval) {
	cur := pl.initial(p)
	curEval := Evaluate(p, cur)
	if cap(pl.solB) < len(cur) {
		pl.solB = make(Solution, len(cur))
	}
	best := pl.solB[:len(cur)]
	copy(best, cur)
	bestEval := curEval

	idx := pl.flippable(p)
	if len(idx) == 0 {
		if !bestEval.Feasible(p.Budget) {
			bestEval = pl.repairFeasible(p, best, bestEval)
		}
		return best, bestEval
	}
	k := pl.cfg.K
	if k > len(idx) {
		k = len(idx)
	}
	if cap(pl.flips) < k {
		pl.flips = make([]int, k)
	}

	// Penalty weight: one unit of over-budget energy must dominate the
	// largest single-rule error, otherwise annealing parks on
	// infeasible plateaus.
	penalty := 1.0
	for _, c := range p.Costs {
		if c.Energy > 0 {
			if r := (c.DropError + 1) / c.Energy; r > penalty {
				penalty = r
			}
		}
	}
	score := func(e Eval) float64 {
		over := e.Energy - p.Budget
		if over < 0 {
			over = 0
		}
		return e.Error + penalty*over
	}

	temp := 1.0
	cooling := math.Pow(1e-3, 1/math.Max(1, float64(pl.cfg.MaxIter)))
	for iter := 0; iter < pl.cfg.MaxIter; iter++ {
		flips := pl.flips[:1+pl.rng.IntN(k)]
		pl.sampleDistinct(idx, flips)
		cand := curEval
		for _, i := range flips {
			if cur[i] {
				cand.Energy -= p.Costs[i].Energy
				cand.Error += p.Costs[i].DropError
			} else {
				cand.Energy += p.Costs[i].Energy
				cand.Error -= p.Costs[i].DropError
			}
		}
		delta := score(cand) - score(curEval)
		if delta <= 0 || pl.rng.Float64() < math.Exp(-delta/temp) {
			// Provenance is stamped on the walk's moves; the best-snapshot
			// copy below keeps the stamps of the moves that reached it,
			// which is exact for the bits that differ from the
			// initialization and approximate for bits a later rejected
			// stretch of the walk flipped back and forth.
			for _, i := range flips {
				cur[i] = !cur[i]
				pl.flipIter[i] = iter
			}
			curEval = cand
			if accept(curEval, bestEval, p.Budget) {
				copy(best, cur)
				bestEval = curEval
			}
		}
		temp *= cooling
	}
	metrics.PlannerIterations.Add(uint64(pl.cfg.MaxIter))

	// Recompute exactly to shed incremental float drift.
	bestEval = Evaluate(p, best)
	if !bestEval.Feasible(p.Budget) {
		bestEval = pl.repairFeasible(p, best, bestEval)
	}
	return best, bestEval
}
