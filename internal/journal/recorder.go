package journal

import (
	"time"

	"github.com/imcf/imcf/internal/rules"
)

// Recorder turns the Energy Planner's index-based decision callbacks
// (core.DecisionRecorder) into events; the controller step and the
// simulator's replay each install one. It runs after the plan is final
// and touches neither the ledger nor the planner's RNG, so journaling
// cannot perturb a plan.
type Recorder struct {
	j       *Journal
	slot    time.Time
	window  int
	trace   string
	rules   []rules.MetaRule
	planned []int
}

// NewRecorder returns a recorder appending to j.
func NewRecorder(j *Journal) *Recorder { return &Recorder{j: j} }

// Bind points the recorder at the plan about to run: its slot, window
// ordinal and trace ("" when untraced), and its planned rules, where
// problem index i names rules[planned[i]].
//
//imcf:noalloc
func (r *Recorder) Bind(slot time.Time, window int, trace string, rules []rules.MetaRule, planned []int) {
	r.slot, r.window, r.trace, r.rules, r.planned = slot, window, trace, rules, planned
}

// RecordDecision implements core.DecisionRecorder. The Flip* sentinels
// pass through: core declares identical values.
func (r *Recorder) RecordDecision(i int, executed bool, flipIter int, rem, energy, fce float64) {
	r.Record(&r.rules[r.planned[i]], executed, flipIter, rem, energy, fce)
}

// Record journals one verdict on rule in the bound plan's slot, window
// and trace: for verdicts reached outside the planner's search.
func (r *Recorder) Record(rule *rules.MetaRule, executed bool, flipIter int, rem, energy, fce float64) {
	v := VerdictDropped
	if executed {
		v = VerdictExecuted
	}
	r.j.Append(Event{
		Slot:           r.slot,
		Window:         r.window,
		Rule:           rule.ID,
		Owner:          rule.Owner,
		Verdict:        v,
		Trace:          r.trace,
		EpRemainingKWh: rem,
		EnergyKWh:      energy,
		FCEDelta:       fce,
		FlipIter:       flipIter,
	})
}
