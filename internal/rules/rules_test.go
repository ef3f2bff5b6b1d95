package rules

import (
	"encoding/json"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/imcf/imcf/internal/device"
	"github.com/imcf/imcf/internal/simclock"
)

func TestFlatMRTMatchesTable2(t *testing.T) {
	mrt := FlatMRT()
	if err := mrt.Validate(); err != nil {
		t.Fatal(err)
	}
	conv := mrt.Convenience()
	if len(conv) != 6 {
		t.Fatalf("flat MRT has %d convenience rules, want 6", len(conv))
	}
	want := []struct {
		name   string
		start  int
		end    int
		action Action
		value  float64
	}{
		{"Night Heat", 1, 7, ActionSetTemperature, 25},
		{"Morning Lights", 4, 9, ActionSetLight, 40},
		{"Day Heat", 8, 16, ActionSetTemperature, 22},
		{"Midday Lights", 10, 17, ActionSetLight, 30},
		{"Afternoon Preheat", 17, 24, ActionSetTemperature, 24},
		{"Cosmetic Lights", 18, 24, ActionSetLight, 40},
	}
	for i, w := range want {
		r := conv[i]
		if r.Name != w.name || r.Window.StartHour != w.start || r.Window.EndHour != w.end ||
			r.Action != w.action || r.Value != w.value {
			t.Errorf("rule %d = %+v, want %+v", i, r, w)
		}
	}
	for name, limit := range map[string]float64{"Energy Flat": 11000, "Energy House": 25500, "Energy Dorms": 480000} {
		got, ok := mrt.BudgetLimit(name)
		if !ok || got.KWh() != limit {
			t.Errorf("BudgetLimit(%s) = %v, %v; want %v", name, got, ok, limit)
		}
	}
	if _, ok := mrt.BudgetLimit("Energy Nowhere"); ok {
		t.Error("BudgetLimit of missing rule found")
	}
}

func TestMetaRuleValidate(t *testing.T) {
	good := MetaRule{ID: "r1", Name: "x", Window: simclock.TimeWindow{StartHour: 1, EndHour: 5}, Action: ActionSetTemperature, Value: 22}
	if err := good.Validate(); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
	cases := []MetaRule{
		{Name: "no id", Window: simclock.TimeWindow{StartHour: 1, EndHour: 5}, Action: ActionSetTemperature, Value: 22},
		{ID: "r", Action: Action(99), Value: 22, Window: simclock.TimeWindow{StartHour: 1, EndHour: 5}},
		{ID: "r", Action: ActionSetTemperature, Value: 99, Window: simclock.TimeWindow{StartHour: 1, EndHour: 5}},
		{ID: "r", Action: ActionSetLight, Value: 150, Window: simclock.TimeWindow{StartHour: 1, EndHour: 5}},
		{ID: "r", Action: ActionSetKWhLimit, Value: -5},
		{ID: "r", Action: ActionSetTemperature, Value: 22, Window: simclock.TimeWindow{StartHour: 9, EndHour: 9}},
		{ID: "r", Action: ActionSetTemperature, Value: 22, Window: simclock.TimeWindow{StartHour: 1, EndHour: 5}, Zone: -1},
	}
	for i, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d (%+v) should not validate", i, r)
		}
	}
}

func TestMRTDuplicateIDs(t *testing.T) {
	mrt := MRT{Rules: []MetaRule{
		{ID: "dup", Action: ActionSetKWhLimit, Value: 100},
		{ID: "dup", Action: ActionSetKWhLimit, Value: 200},
	}}
	if err := mrt.Validate(); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestMRTRuleCountCapped(t *testing.T) {
	mrt := MRT{Rules: make([]MetaRule, MaxRules+1)}
	for i := range mrt.Rules {
		mrt.Rules[i] = MetaRule{ID: fmt.Sprintf("b%d", i), Action: ActionSetKWhLimit, Value: 100}
	}
	if err := mrt.Validate(); err == nil {
		t.Errorf("MRT of %d rules accepted", len(mrt.Rules))
	}
	mrt.Rules = mrt.Rules[:MaxRules]
	if err := mrt.Validate(); err != nil {
		t.Errorf("MRT of exactly MaxRules rules rejected: %v", err)
	}
}

func TestActiveAt(t *testing.T) {
	r := MetaRule{ID: "r", Window: simclock.TimeWindow{StartHour: 1, EndHour: 7}, Action: ActionSetTemperature, Value: 25}
	if !r.ActiveAt(3) || r.ActiveAt(7) || r.ActiveAt(0) {
		t.Error("ActiveAt window logic wrong")
	}
	b := MetaRule{ID: "b", Action: ActionSetKWhLimit, Value: 100}
	if b.ActiveAt(3) {
		t.Error("budget rule reported active")
	}
}

func TestActionDeviceClass(t *testing.T) {
	if c, ok := ActionSetTemperature.DeviceClass(); !ok || c != device.ClassHVAC {
		t.Errorf("temperature class = %v, %v", c, ok)
	}
	if c, ok := ActionSetLight.DeviceClass(); !ok || c != device.ClassLight {
		t.Errorf("light class = %v, %v", c, ok)
	}
	if _, ok := ActionSetKWhLimit.DeviceClass(); ok {
		t.Error("budget action has a device class")
	}
}

func TestMRTJSONRoundTrip(t *testing.T) {
	mrt := FlatMRT()
	b, err := json.Marshal(mrt)
	if err != nil {
		t.Fatal(err)
	}
	var got MRT
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rules) != len(mrt.Rules) {
		t.Fatalf("round trip lost rules: %d vs %d", len(got.Rules), len(mrt.Rules))
	}
	for i := range mrt.Rules {
		if got.Rules[i] != mrt.Rules[i] {
			t.Errorf("rule %d changed: %+v vs %+v", i, got.Rules[i], mrt.Rules[i])
		}
	}
}

func TestErrorModel(t *testing.T) {
	m := DefaultErrorModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Inside the deadband: no perceptible error.
	if got := m.Error(ActionSetTemperature, 22, 23.5); got != 0 {
		t.Errorf("deadband error = %v, want 0", got)
	}
	// Beyond deadband: linear.
	if got := m.Error(ActionSetTemperature, 25, 18); got <= 0 || got >= 1 {
		t.Errorf("7°C deviation error = %v, want in (0,1)", got)
	}
	// Saturates at 1.
	if got := m.Error(ActionSetTemperature, 25, 0); got != 1 {
		t.Errorf("25°C deviation error = %v, want 1", got)
	}
	// Symmetric.
	if m.Error(ActionSetTemperature, 20, 26) != m.Error(ActionSetTemperature, 26, 20) {
		t.Error("error not symmetric")
	}
	// Light uses its own scale.
	if got := m.Error(ActionSetLight, 40, 0); got <= 0 {
		t.Errorf("dark room error = %v", got)
	}
	// Budget actions have no convenience error.
	if got := m.Error(ActionSetKWhLimit, 100, 0); got != 0 {
		t.Errorf("budget action error = %v", got)
	}
}

func TestErrorModelValidate(t *testing.T) {
	bad := DefaultErrorModel()
	bad.TempScale = 0
	if bad.Validate() == nil {
		t.Error("zero scale accepted")
	}
	bad = DefaultErrorModel()
	bad.LightDeadband = -1
	if bad.Validate() == nil {
		t.Error("negative deadband accepted")
	}
}

func TestPropertyErrorBoundedMonotone(t *testing.T) {
	m := DefaultErrorModel()
	f := func(desired, actual int8) bool {
		d, a := float64(desired)/4+20, float64(actual)/4+20
		e := m.Error(ActionSetTemperature, d, a)
		if e < 0 || e > 1 {
			return false
		}
		// Moving actual 1° further from desired never decreases error.
		var further float64
		if a >= d {
			further = a + 1
		} else {
			further = a - 1
		}
		return m.Error(ActionSetTemperature, d, further) >= e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
