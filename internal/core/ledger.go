package core

import "fmt"

// DefaultCarryCapHours is the default ledger bound: three days of mean
// hourly budget.
const DefaultCarryCapHours = 72

// Ledger is the Energy Planner's bounded net-metering ledger (DESIGN.md
// §4), the one budget policy of both the simulator's replay and the
// controller's step. The zero Ledger carries nothing forward.
type Ledger struct {
	carry, cap float64
}

// NewLedger bounds the carry at capHours of the mean hourly budget; zero
// hours means DefaultCarryCapHours.
func NewLedger(meanHourlyKWh, capHours float64) (Ledger, error) {
	if capHours < 0 {
		return Ledger{}, fmt.Errorf("core: negative carry cap %v hours", capHours)
	}
	if capHours == 0 {
		capHours = DefaultCarryCapHours
	}
	return Ledger{cap: meanHourlyKWh * capHours}, nil
}

// Budget is a slot's budget: its amortized allowance plus the carry.
//
//imcf:noalloc
func (l *Ledger) Budget(allowanceKWh float64) float64 { return allowanceKWh + l.carry }

// Problem plans a slot necessity first: necessity rules have committed
// necessityKWh of its budget, and the convenience rules in costs compete
// for what is left, max(budget − necessity, 0).
//
//imcf:noalloc
func (l *Ledger) Problem(costs []RuleCost, budget, necessityKWh float64) Problem {
	return Problem{Costs: costs, Budget: max(budget-necessityKWh, 0)}
}

// Settle closes a slot that spent spentKWh of budget, necessity rules
// included: the unspent remainder carries forward up to the cap.
//
//imcf:noalloc
func (l *Ledger) Settle(budget, spentKWh float64) { l.carry = min(max(budget-spentKWh, 0), l.cap) }

// Carry is the budget carried into the next slot.
func (l *Ledger) Carry() float64 { return l.carry }
