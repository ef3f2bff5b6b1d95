package core

import (
	"fmt"

	"github.com/imcf/imcf/internal/metrics"
)

// This file implements fairness-aware planning, the paper's future-work
// direction of "multiple energy planners with conflicting interests":
// several residents' rules compete for one budget, and a plan that is
// optimal in total convenience may fund one resident entirely at
// another's expense. PlanFair keeps Algorithm 1's search but accepts
// candidates lexicographically by (feasibility, worst per-group error,
// total error), driving toward minimax-fair plans.

// GroupEval extends Eval with per-group error totals.
type GroupEval struct {
	Eval
	// GroupError holds the summed drop error per group.
	GroupError []float64
}

// worst returns the maximum per-group error.
//
//imcf:noalloc
func (g GroupEval) worst() float64 {
	w := 0.0
	for _, e := range g.GroupError {
		if e > w {
			w = e
		}
	}
	return w
}

// EvaluateGrouped computes a solution's objectives with per-group error
// attribution. group[i] assigns rule i to a group in [0, nGroups).
func EvaluateGrouped(p Problem, s Solution, group []int, nGroups int) GroupEval {
	if len(s) != len(p.Costs) || len(group) != len(p.Costs) {
		panic(fmt.Sprintf("core: grouped evaluate length mismatch: %d costs, %d solution, %d groups",
			len(p.Costs), len(s), len(group)))
	}
	ge := GroupEval{GroupError: make([]float64, nGroups)}
	for i, on := range s {
		if on {
			ge.Energy += p.Costs[i].Energy
		} else {
			ge.Error += p.Costs[i].DropError
			ge.GroupError[group[i]] += p.Costs[i].DropError
		}
	}
	return ge
}

// PlanFair minimizes the worst per-group convenience error subject to
// the budget, then total error as a tie-break. group[i] is rule i's
// group index; nGroups bounds the indices. offsets, when non-nil, seeds
// each group's error with debt carried in from earlier slots, so
// long-running callers achieve fairness over time rather than per slot;
// the returned GroupError reports only this plan's errors (offsets
// excluded). Like Plan, the returned Solution aliases planner-owned
// scratch and is valid only until the next Plan/PlanFair call.
func (pl *Planner) PlanFair(p Problem, group []int, nGroups int, offsets []float64) (Solution, GroupEval, error) {
	if err := p.Validate(); err != nil {
		return nil, GroupEval{}, err
	}
	if len(group) != len(p.Costs) {
		return nil, GroupEval{}, fmt.Errorf("core: %d group assignments for %d rules", len(group), len(p.Costs))
	}
	if nGroups < 1 {
		return nil, GroupEval{}, fmt.Errorf("core: nGroups %d must be ≥ 1", nGroups)
	}
	if offsets != nil && len(offsets) != nGroups {
		return nil, GroupEval{}, fmt.Errorf("core: %d offsets for %d groups", len(offsets), nGroups)
	}
	for i, g := range group {
		if g < 0 || g >= nGroups {
			return nil, GroupEval{}, fmt.Errorf("core: rule %d has group %d outside [0,%d)", i, g, nGroups)
		}
	}
	n := len(p.Costs)
	if n == 0 {
		return Solution{}, GroupEval{GroupError: make([]float64, nGroups)}, nil
	}
	metrics.PlannerPlans.Inc()
	pl.resetFlipIter(n)

	best := pl.initial(p)
	bestEval := evaluateWithOffsets(p, best, group, nGroups, offsets)
	idx := pl.flippable(p)

	if len(idx) > 0 {
		k := pl.cfg.K
		if k > len(idx) {
			k = len(idx)
		}
		if cap(pl.flips) < k {
			pl.flips = make([]int, k)
		}
		cand := GroupEval{GroupError: make([]float64, nGroups)}
		for iter := 0; iter < pl.cfg.MaxIter; iter++ {
			flips := pl.flips[:1+pl.rng.IntN(k)]
			pl.sampleDistinct(idx, flips)

			cand.Eval = bestEval.Eval
			copy(cand.GroupError, bestEval.GroupError)
			for _, i := range flips {
				if best[i] {
					cand.Energy -= p.Costs[i].Energy
					cand.Error += p.Costs[i].DropError
					cand.GroupError[group[i]] += p.Costs[i].DropError
				} else {
					cand.Energy += p.Costs[i].Energy
					cand.Error -= p.Costs[i].DropError
					cand.GroupError[group[i]] -= p.Costs[i].DropError
				}
			}
			if acceptFair(cand, bestEval, p.Budget) {
				for _, i := range flips {
					best[i] = !best[i]
					pl.flipIter[i] = iter
				}
				bestEval.Eval = cand.Eval
				copy(bestEval.GroupError, cand.GroupError)
			}
		}
		metrics.PlannerIterations.Add(uint64(pl.cfg.MaxIter))
	}

	// Recompute exactly (offset-free) and repair feasibility if needed.
	bestEval = EvaluateGrouped(p, best, group, nGroups)
	if !bestEval.Feasible(p.Budget) {
		bestEval.Eval = pl.repairFeasible(p, best, bestEval.Eval)
		bestEval = EvaluateGrouped(p, best, group, nGroups)
	}
	pl.emit(p, best, bestEval.Eval)
	return best, bestEval, nil
}

// evaluateWithOffsets is EvaluateGrouped with each group's error seeded
// by its carried-in debt (acceptance-time view only).
func evaluateWithOffsets(p Problem, s Solution, group []int, nGroups int, offsets []float64) GroupEval {
	ge := EvaluateGrouped(p, s, group, nGroups)
	if offsets != nil {
		for g, o := range offsets {
			ge.GroupError[g] += o
		}
	}
	return ge
}

// acceptFair orders candidates by feasibility, then worst group error,
// then total error, then energy.
//
//imcf:noalloc
func acceptFair(cand, incumbent GroupEval, budget float64) bool {
	candFeas := cand.Feasible(budget)
	incFeas := incumbent.Feasible(budget)
	switch {
	case candFeas && !incFeas:
		return true
	case !candFeas && incFeas:
		return false
	case !candFeas: // both infeasible: descend in energy
		return cand.Energy < incumbent.Energy
	}
	cw, iw := cand.worst(), incumbent.worst()
	if cw != iw {
		return cw < iw
	}
	if cand.Error != incumbent.Error {
		return cand.Error < incumbent.Error
	}
	return cand.Energy < incumbent.Energy
}
