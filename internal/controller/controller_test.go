package controller

import (
	"bytes"
	"encoding/json"
	"errors"
	"github.com/imcf/imcf/internal/core"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/store"
	"github.com/imcf/imcf/internal/units"
)

// winterNight is an instant when the prototype's night-heat rule is
// active (03:00 in January).
var winterNight = time.Date(2015, time.January, 10, 3, 0, 0, 0, time.UTC)

func newController(t *testing.T, mut func(*Config)) *Controller {
	t.Helper()
	res, err := home.Prototype(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Residence:    res,
		Clock:        simclock.NewSimClock(winterNight),
		WeeklyBudget: home.PrototypeWeeklyBudget,
	}
	cfg.Planner.Seed = 9
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	res, err := home.Prototype(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Residence: res}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := New(Config{Residence: res, WeeklyBudget: 165 * units.KilowattHour, CarryCapHours: -1}); err == nil {
		t.Error("negative carry cap accepted")
	}
	if _, err := New(Config{Residence: res, WeeklyBudget: 165 * units.KilowattHour, Mode: ModeManual + 1}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestStepActuatesDevices(t *testing.T) {
	c := newController(t, nil)
	report, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	// At 03:00 only the father's night-heat rule is active.
	if len(report.Executed)+len(report.Dropped) != 1 {
		t.Fatalf("report = %+v, want exactly one active rule", report)
	}
	if len(report.Executed) == 1 {
		// Executed: the father's HVAC must be on at 23 °C.
		_, st, _ := c.Registry().Get("proto/z0/hvac")
		on, sp, _, _ := st.Snapshot()
		if !on || sp != 23 {
			t.Errorf("device state after execute: on=%v sp=%v", on, sp)
		}
	}
	sum := c.Summary()
	if sum.Steps != 1 || sum.ActiveRuleSlots != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestStepBlocksDroppedRules(t *testing.T) {
	// A zero budget forces EP to drop everything.
	c := newController(t, func(cfg *Config) { cfg.WeeklyBudget = units.Energy(1e-9) })
	report, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Executed) != 0 || len(report.Dropped) != 1 {
		t.Fatalf("report = %+v, want everything dropped", report)
	}
	// The father's HVAC must be off and its address blocked.
	_, st, _ := c.Registry().Get("proto/z0/hvac")
	on, _, _, n := st.Snapshot()
	if on || n == 0 {
		t.Errorf("dropped device state: on=%v commands=%d", on, n)
	}
	if !c.Firewall().Blocked("192.168.2.10") {
		t.Error("dropped device not blocked in firewall")
	}
	// Manual commands to the blocked device are rejected.
	if err := c.Command("proto/z0/hvac", 28); !errors.Is(err, ErrBlocked) {
		t.Errorf("Command on blocked device = %v, want ErrBlocked", err)
	}
}

// TestStepUnblocksWhenRuleWindowCloses pins the installed block set to
// the current step's drops: a device blocked because its rule was
// dropped at one hour is unblocked at the next hour, when no rule on it
// is active, so manual commands reach it again.
func TestStepUnblocksWhenRuleWindowCloses(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2015, time.January, 10, 4, 0, 0, 0, time.UTC))
	c := newController(t, func(cfg *Config) {
		cfg.Clock = clock
		cfg.WeeklyBudget = units.Energy(1e-9)
	})
	// 04:00 is the last hour of the night-heat window; EP drops it.
	if report, err := c.Step(); err != nil || len(report.Dropped) != 1 {
		t.Fatalf("04:00 step = %+v, %v; want the night-heat rule dropped", report, err)
	}
	if !c.Firewall().Blocked("192.168.2.10") {
		t.Fatal("dropped device not blocked")
	}
	// At 05:00 no rule on the father's HVAC is active.
	clock.Advance(time.Hour)
	if report, err := c.Step(); err != nil || len(report.Dropped) != 0 {
		t.Fatalf("05:00 step = %+v, %v; want nothing dropped", report, err)
	}
	if rules := c.Firewall().Rules(); len(rules) != 0 {
		t.Errorf("block set after a step with no drops = %v, want empty", rules)
	}
	if err := c.Command("proto/z0/hvac", 21); err != nil {
		t.Errorf("Command after the rule's window closed = %v, want success", err)
	}
}

func TestWeekLongRunStaysWithinBudget(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2015, time.January, 5, 0, 0, 0, 0, time.UTC))
	c := newController(t, func(cfg *Config) { cfg.Clock = clock })
	for i := 0; i < 7*24; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Hour)
	}
	sum := c.Summary()
	t.Logf("week: F_E=%.2f kWh F_CE=%.2f%% perOwner=%v",
		sum.Energy.KWh(), float64(sum.ConvenienceError), sum.PerOwner)
	if sum.Steps != 168 {
		t.Errorf("steps = %d", sum.Steps)
	}
	if sum.Energy.KWh() > home.PrototypeWeeklyBudget.KWh()*1.05 {
		t.Errorf("weekly energy %.1f exceeds the 165 kWh budget", sum.Energy.KWh())
	}
	if sum.Energy.KWh() < 50 {
		t.Errorf("weekly energy %.1f implausibly low", sum.Energy.KWh())
	}
	if len(sum.PerOwner) != 3 {
		t.Errorf("PerOwner = %v, want 3 residents", sum.PerOwner)
	}
	for owner, ce := range sum.PerOwner {
		if float64(ce) > 25 {
			t.Errorf("resident %s error %v implausibly high", owner, ce)
		}
	}
}

func TestMRTPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := newController(t, func(cfg *Config) { cfg.Store = db })

	// Change the MRT: drop everything but the father's rules.
	mrt := c.MRT()
	var kept rules.MRT
	for _, r := range mrt.Rules {
		if r.Owner == "Father" || r.IsBudget() {
			kept.Rules = append(kept.Rules, r)
		}
	}
	if err := c.SetMRT(kept); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted controller sees the persisted table.
	db2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2 := newController(t, func(cfg *Config) { cfg.Store = db2 })
	if got := len(c2.MRT().Rules); got != len(kept.Rules) {
		t.Errorf("restarted controller has %d rules, want %d", got, len(kept.Rules))
	}
}

func TestSetMRTValidation(t *testing.T) {
	c := newController(t, nil)
	bad := rules.MRT{Rules: []rules.MetaRule{{ID: "x", Action: rules.ActionSetTemperature, Value: 22,
		Window: simclock.TimeWindow{StartHour: 1, EndHour: 5}, Zone: 99}}}
	if err := c.SetMRT(bad); err == nil {
		t.Error("MRT referencing missing zone accepted")
	}
	dup := rules.MRT{Rules: []rules.MetaRule{
		{ID: "d", Action: rules.ActionSetKWhLimit, Value: 10},
		{ID: "d", Action: rules.ActionSetKWhLimit, Value: 20},
	}}
	if err := c.SetMRT(dup); err == nil {
		t.Error("duplicate rule IDs accepted")
	}
}

// TestNewKeepsPlannerSeed pins that New fills the planner's defaults
// field by field: a seed, or any other field set alone, survives, and
// every field left zero takes its default, MaxIter's being 100.
func TestNewKeepsPlannerSeed(t *testing.T) {
	for _, tc := range []struct {
		set  core.Config
		want func(*core.Config)
	}{
		{core.Config{Seed: 1}, func(c *core.Config) { c.Seed = 1 }},
		{core.Config{K: 2, KeepZeroGain: true},
			func(c *core.Config) { c.K, c.KeepZeroGain = 2, true }},
		{core.Config{Heuristic: core.Anneal, Init: core.InitRandom},
			func(c *core.Config) { c.Heuristic, c.Init = core.Anneal, core.InitRandom }},
	} {
		want := core.DefaultConfig()
		tc.want(&want)
		c := newController(t, func(cfg *Config) { cfg.Planner = tc.set })
		if got := c.planner.Config(); got != want {
			t.Errorf("Planner %+v runs as %+v, want %+v", tc.set, got, want)
		}
	}
}

func TestCommandUnknownDevice(t *testing.T) {
	c := newController(t, nil)
	if err := c.Command("nope", 1); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestCarryLedgerBounded(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2015, time.July, 1, 9, 0, 0, 0, time.UTC))
	c := newController(t, func(cfg *Config) {
		cfg.Clock = clock
		cfg.CarryCapHours = 5
	})
	// Many summer daytime steps with little demand: carry must stay
	// bounded by cap × hourly budget.
	for i := 0; i < 100; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Hour)
	}
	hourly := home.PrototypeWeeklyBudget.KWh() / 168
	c.stepMu.Lock()
	carry := c.ledger.Carry()
	c.stepMu.Unlock()
	if carry > 5*hourly+1e-9 {
		t.Errorf("carry %v exceeds cap %v", carry, 5*hourly)
	}
}

func TestSummaryZeroValue(t *testing.T) {
	c := newController(t, nil)
	sum := c.Summary()
	if sum.Steps != 0 || sum.Energy != 0 || sum.ConvenienceError != 0 {
		t.Errorf("fresh summary = %+v", sum)
	}
	if _, ok := c.LastStep(); ok {
		t.Error("LastStep on fresh controller reported a step")
	}
}

func TestHistoryRing(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2015, time.January, 5, 0, 0, 0, 0, time.UTC))
	c := newController(t, func(cfg *Config) { cfg.Clock = clock })
	if len(c.History()) != 0 {
		t.Error("fresh controller has history")
	}
	const steps = historyCap + 10 // overflow the ring
	for i := 0; i < steps; i++ {
		report, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		// LastStep is the ring's newest slot, before and after it wraps.
		if last, ok := c.LastStep(); !ok || !last.Time.Equal(report.Time) {
			t.Fatalf("step %d: LastStep = %v, %v; want %v", i, last.Time, ok, report.Time)
		}
		clock.Advance(time.Hour)
	}
	h := c.History()
	if len(h) != historyCap {
		t.Fatalf("history = %d entries, want %d", len(h), historyCap)
	}
	for i := 1; i < len(h); i++ {
		if !h[i].Time.After(h[i-1].Time) {
			t.Fatalf("history out of order at %d: %v then %v", i, h[i-1].Time, h[i].Time)
		}
	}
	// The newest entry is the last step.
	last, _ := c.LastStep()
	if !h[len(h)-1].Time.Equal(last.Time) {
		t.Errorf("history tail %v != last step %v", h[len(h)-1].Time, last.Time)
	}
}

// TestHistoryRingNoOvershoot pins the history ring's backing array:
// it grows with the steps rather than up front, and once full it holds
// exactly historyCap reports, not append's next doubling.
func TestHistoryRingNoOvershoot(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2015, time.January, 5, 0, 0, 0, 0, time.UTC))
	c := newController(t, func(cfg *Config) { cfg.Clock = clock })
	for i := 0; i < historyCap+10; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if i == 3 && cap(c.history) >= historyCap {
			t.Fatalf("after 4 steps the history holds %d slots, want fewer than %d", cap(c.history), historyCap)
		}
		clock.Advance(time.Hour)
	}
	if got := cap(c.history); got != historyCap {
		t.Fatalf("cap(history) = %d after %d steps, want %d", got, historyCap+10, historyCap)
	}
}

// TestReportsKeepTheirRuleLists: step scratch is reused, but every
// report's Executed and Dropped lists are its own, so copies taken as
// each step returned still equal the history after a day of later
// steps. A list with no rule stays nil, so it encodes as JSON null.
func TestReportsKeepTheirRuleLists(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2015, time.January, 5, 0, 0, 0, 0, time.UTC))
	c := newController(t, func(cfg *Config) {
		cfg.Clock = clock
		cfg.WeeklyBudget = home.PrototypeWeeklyBudget / 4 // some hours drop rules
	})
	var returned []StepReport
	var sawDrop, sawIdle bool
	for i := 0; i < 24; i++ {
		report, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		snapshot := report
		snapshot.Executed = slices.Clone(report.Executed)
		snapshot.Dropped = slices.Clone(report.Dropped)
		returned = append(returned, snapshot)
		sawDrop = sawDrop || len(report.Dropped) > 0
		if len(report.Executed)+len(report.Dropped) == 0 {
			sawIdle = true
			if report.Executed != nil || report.Dropped != nil {
				t.Fatalf("idle hour %d: lists %#v, %#v, want nil", i, report.Executed, report.Dropped)
			}
		}
		clock.Advance(time.Hour)
	}
	if !sawDrop || !sawIdle {
		t.Fatalf("day has drop=%v idle=%v; want both", sawDrop, sawIdle)
	}
	if h := c.History(); !reflect.DeepEqual(h, returned) {
		t.Fatalf("history differs from the reports steps returned:\n%+v\n%+v", h, returned)
	}
	data, err := json.Marshal(returned[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"executed":null`)) || !bytes.Contains(data, []byte(`"dropped":null`)) {
		t.Errorf("idle report JSON = %s, want null rule lists", data)
	}
}
