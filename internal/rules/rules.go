// Package rules defines the two rule languages of the IMCF system: the
// Meta-Rule Table (MRT) of convenience preferences that the Energy
// Planner filters, and the IFTTT-style trigger-action rules used as the
// energy-oblivious baseline. It also provides the paper's exact Table II
// (flat MRT) and Table III (IFTTT configuration) contents and the
// convenience-error model used by the F_CE metric.
package rules

import (
	"encoding/json"
	"fmt"

	"github.com/imcf/imcf/internal/device"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/units"
	"github.com/imcf/imcf/internal/weather"
)

// Action is what a rule does when it fires.
type Action int

// Rule actions, matching the paper's Table II "Action" column.
const (
	ActionSetTemperature Action = iota + 1
	ActionSetLight
	ActionSetKWhLimit
)

// String returns the action name as printed in the paper's tables.
func (a Action) String() string {
	switch a {
	case ActionSetTemperature:
		return "Set Temperature"
	case ActionSetLight:
		return "Set Light"
	case ActionSetKWhLimit:
		return "Set kWh Limit"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Valid reports whether a is a known action.
func (a Action) Valid() bool { return a >= ActionSetTemperature && a <= ActionSetKWhLimit }

// DeviceClass returns the device class the action targets, or false for
// actions (like budget limits) that target no device.
func (a Action) DeviceClass() (device.Class, bool) {
	switch a {
	case ActionSetTemperature:
		return device.ClassHVAC, true
	case ActionSetLight:
		return device.ClassLight, true
	default:
		return 0, false
	}
}

// MetaRule is one row of a Meta-Rule Table: a convenience preference
// ("Night Heat, 01:00–07:00, Set Temperature 25") or an energy budget
// meta-rule ("Energy Flat, three years, Set kWh Limit 11000").
type MetaRule struct {
	// ID is unique within an MRT.
	ID string `json:"id"`
	// Name is the human description ("Night Heat").
	Name string `json:"name"`
	// Window is the daily recurrence window; ignored for budget rules.
	Window simclock.TimeWindow `json:"window"`
	// Action and Value define the desired output Ω.
	Action Action  `json:"action"`
	Value  float64 `json:"value"`
	// Zone is the zone (room) whose devices the rule drives.
	Zone int `json:"zone"`
	// Owner attributes the rule to a resident, for per-resident
	// convenience accounting (Table V). Optional.
	Owner string `json:"owner,omitempty"`
	// Priority orders rules for reporting; lower is more important.
	Priority int `json:"priority"`
	// Necessity marks a rule that "should always be executed
	// regardless of whether the long-term target is met" (Section I-B
	// of the paper): the planner never drops it; its energy is
	// deducted from the budget before convenience rules compete.
	Necessity bool `json:"necessity,omitempty"`
}

// Validate reports whether the rule is well-formed.
func (r MetaRule) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("rules: meta-rule %q missing ID", r.Name)
	}
	if !r.Action.Valid() {
		return fmt.Errorf("rules: meta-rule %s: invalid action %d", r.ID, r.Action)
	}
	switch r.Action {
	case ActionSetTemperature:
		if r.Value < -20 || r.Value > 40 {
			return fmt.Errorf("rules: meta-rule %s: temperature %v outside [-20,40]", r.ID, r.Value)
		}
	case ActionSetLight:
		if r.Value < 0 || r.Value > 100 {
			return fmt.Errorf("rules: meta-rule %s: light level %v outside [0,100]", r.ID, r.Value)
		}
	case ActionSetKWhLimit:
		if r.Value <= 0 {
			return fmt.Errorf("rules: meta-rule %s: kWh limit %v not positive", r.ID, r.Value)
		}
		return nil // budget rules have no window or zone constraints
	}
	if err := r.Window.Validate(); err != nil {
		return fmt.Errorf("rules: meta-rule %s: %w", r.ID, err)
	}
	if r.Zone < 0 {
		return fmt.Errorf("rules: meta-rule %s: negative zone", r.ID)
	}
	return nil
}

// IsBudget reports whether the rule is an energy-budget meta-rule rather
// than a convenience rule.
func (r MetaRule) IsBudget() bool { return r.Action == ActionSetKWhLimit }

// ActiveAt reports whether a convenience rule applies during the given
// hour of day. Budget rules are never "active" in the scheduling sense.
func (r MetaRule) ActiveAt(hour int) bool {
	return !r.IsBudget() && r.Window.Contains(hour)
}

// MRT is a Meta-Rule Table: the user's convenience rules plus budget
// meta-rules.
type MRT struct {
	Rules []MetaRule `json:"rules"`
}

// MaxRules bounds an MRT's rule count. It sits well above the largest
// built-in residence (the Dorms' 600 convenience rules) and keeps a
// table posted over the API from sizing the planner's per-cycle work
// without limit.
const MaxRules = 4096

// Validate checks the rule count, every rule and ID uniqueness.
func (t MRT) Validate() error {
	if len(t.Rules) > MaxRules {
		return fmt.Errorf("rules: MRT has %d rules, more than the %d allowed", len(t.Rules), MaxRules)
	}
	seen := make(map[string]bool, len(t.Rules))
	for _, r := range t.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
		if seen[r.ID] {
			return fmt.Errorf("rules: duplicate meta-rule ID %q", r.ID)
		}
		seen[r.ID] = true
	}
	return nil
}

// Convenience returns the non-budget rules — both tentative-comfort
// rules and necessity rules — in table order. (The paper folds
// necessity rules into the same MRT; the planner distinguishes them by
// the Necessity flag.)
func (t MRT) Convenience() []MetaRule {
	var out []MetaRule
	for _, r := range t.Rules {
		if !r.IsBudget() {
			out = append(out, r)
		}
	}
	return out
}

// Necessities returns only the necessity rules.
func (t MRT) Necessities() []MetaRule {
	var out []MetaRule
	for _, r := range t.Rules {
		if !r.IsBudget() && r.Necessity {
			out = append(out, r)
		}
	}
	return out
}

// BudgetLimit returns the total energy limit declared by the named budget
// meta-rule, or false if absent.
func (t MRT) BudgetLimit(name string) (units.Energy, bool) {
	for _, r := range t.Rules {
		if r.IsBudget() && r.Name == name {
			return units.Energy(r.Value), true
		}
	}
	return 0, false
}

// MarshalJSON/UnmarshalJSON use the default struct encoding; MRT persists
// via the store package's JSON helpers.
var (
	_ json.Marshaler   = rawMRT{}
	_ json.Unmarshaler = (*rawMRT)(nil)
)

// rawMRT exists only to pin the JSON round-trip contract in tests.
type rawMRT struct{ MRT }

func (r rawMRT) MarshalJSON() ([]byte, error)  { return json.Marshal(r.MRT) }
func (r *rawMRT) UnmarshalJSON(b []byte) error { return json.Unmarshal(b, &r.MRT) }

// FlatMRT returns the paper's Table II: the Meta-Rule Table used in the
// flat experiments, including the three budget meta-rules.
func FlatMRT() MRT {
	return MRT{Rules: []MetaRule{
		{ID: "flat/night-heat", Name: "Night Heat", Window: simclock.TimeWindow{StartHour: 1, EndHour: 7}, Action: ActionSetTemperature, Value: 25, Priority: 1},
		{ID: "flat/morning-lights", Name: "Morning Lights", Window: simclock.TimeWindow{StartHour: 4, EndHour: 9}, Action: ActionSetLight, Value: 40, Priority: 2},
		{ID: "flat/day-heat", Name: "Day Heat", Window: simclock.TimeWindow{StartHour: 8, EndHour: 16}, Action: ActionSetTemperature, Value: 22, Priority: 3},
		{ID: "flat/midday-lights", Name: "Midday Lights", Window: simclock.TimeWindow{StartHour: 10, EndHour: 17}, Action: ActionSetLight, Value: 30, Priority: 4},
		{ID: "flat/afternoon-preheat", Name: "Afternoon Preheat", Window: simclock.TimeWindow{StartHour: 17, EndHour: 24}, Action: ActionSetTemperature, Value: 24, Priority: 5},
		{ID: "flat/cosmetic-lights", Name: "Cosmetic Lights", Window: simclock.TimeWindow{StartHour: 18, EndHour: 24}, Action: ActionSetLight, Value: 40, Priority: 6},
		{ID: "budget/flat", Name: "Energy Flat", Action: ActionSetKWhLimit, Value: 11000, Priority: 7},
		{ID: "budget/house", Name: "Energy House", Action: ActionSetKWhLimit, Value: 25500, Priority: 8},
		{ID: "budget/dorms", Name: "Energy Dorms", Action: ActionSetKWhLimit, Value: 480000, Priority: 9},
	}}
}

// ErrorModel parameterizes the convenience-error function ce: the
// normalization scale and the comfort deadband within which a deviation
// is imperceptible. These are the paper's "domain-specific operators".
type ErrorModel struct {
	// TempScale normalizes temperature deviations (°C) to [0,1].
	TempScale float64
	// TempDeadband is the deviation (°C) users do not perceive.
	TempDeadband float64
	// LightScale normalizes light deviations (dimmer units) to [0,1].
	LightScale float64
	// LightDeadband is the light deviation users do not perceive.
	LightDeadband float64
}

// DefaultErrorModel returns the calibrated model used in the evaluation.
func DefaultErrorModel() ErrorModel {
	return ErrorModel{
		TempScale:     7.5,
		TempDeadband:  3,
		LightScale:    32,
		LightDeadband: 8,
	}
}

// Validate reports whether the model is usable.
func (m ErrorModel) Validate() error {
	if m.TempScale <= 0 || m.LightScale <= 0 {
		return fmt.Errorf("rules: non-positive error scale in %+v", m)
	}
	if m.TempDeadband < 0 || m.LightDeadband < 0 {
		return fmt.Errorf("rules: negative deadband in %+v", m)
	}
	return nil
}

// Error returns the normalized convenience error ce ∈ [0,1] of a rule
// with desired output Ω=desired when the achieved output is actual:
// zero inside the deadband, then linear in |Ω−actual| up to the scale.
func (m ErrorModel) Error(a Action, desired, actual float64) float64 {
	var scale, dead float64
	switch a {
	case ActionSetTemperature:
		scale, dead = m.TempScale, m.TempDeadband
	case ActionSetLight:
		scale, dead = m.LightScale, m.LightDeadband
	default:
		return 0
	}
	delta := desired - actual
	if delta < 0 {
		delta = -delta
	}
	if delta <= dead {
		return 0
	}
	e := (delta - dead) / scale
	if e > 1 {
		return 1
	}
	return e
}

// Env is the environmental context an IFTTT rule is evaluated against.
type Env struct {
	Season      simclock.Season
	Condition   weather.Condition
	OutdoorTemp float64 // °C
	Light       float64 // ambient light 0–100
	DoorOpen    bool
}
