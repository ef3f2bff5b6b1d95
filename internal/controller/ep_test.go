package controller

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/core"
	"github.com/imcf/imcf/internal/ecp"
	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/sim"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/units"
)

// weekHours is one week of hourly plan windows.
const weekHours = 7 * 24

// firstWeek is a journal sink keeping the events of the first week of
// plan windows.
type firstWeek []journal.Event

func (w *firstWeek) AppendEvent(ev journal.Event) error {
	if ev.Window < weekHours {
		*w = append(*w, ev)
	}
	return nil
}

// TestControllerMatchesSimEP cross-checks the two Energy Planner paths:
// the sim replay behind the paper's figures and the controller step the
// daemon runs. Both plan the prototype residence hour by hour for a
// week with the same planner configuration and the same hourly budget:
// LAF's uniform hourly allowance in sim, WeeklyBudget/168 in the
// controller. The budgets are dyadic, so the two divisions agree
// exactly. Every journaled verdict must then match, at a budget that
// forces drops and at one that does not.
func TestControllerMatchesSimEP(t *testing.T) {
	start := time.Date(2015, time.January, 5, 0, 0, 0, 0, time.UTC)
	planner := core.DefaultConfig()
	planner.Seed = 9
	for _, tc := range []struct {
		weeklyKWh float64
		drops     bool
	}{{42, true}, {336, false}} {
		t.Run(fmt.Sprintf("%vkWh", tc.weeklyKWh), func(t *testing.T) {
			simEvs := simWeek(t, start, planner, tc.weeklyKWh/weekHours)
			ctlEvs := controllerWeek(t, start, planner, tc.weeklyKWh)
			if len(simEvs) != len(ctlEvs) || len(simEvs) == 0 {
				t.Fatalf("sim journaled %d events in the week, the controller %d", len(simEvs), len(ctlEvs))
			}
			dropped := 0
			for i, s := range simEvs {
				c := ctlEvs[i]
				if s.Rule != c.Rule || s.Owner != c.Owner || !s.Slot.Equal(c.Slot) || s.Window != c.Window ||
					s.Verdict != c.Verdict || s.EpRemainingKWh != c.EpRemainingKWh ||
					s.EnergyKWh != c.EnergyKWh || s.FlipIter != c.FlipIter {
					t.Fatalf("event %d differs:\nsim        %+v\ncontroller %+v", i, s, c)
				}
				// sim keeps ambient readings as float32 (Workload's
				// precompute), the controller reads them as float64, so
				// a drop's convenience error may differ by that rounding.
				if math.Abs(s.FCEDelta-c.FCEDelta) > 1e-6 {
					t.Fatalf("event %d FCEDelta: sim %v, controller %v", i, s.FCEDelta, c.FCEDelta)
				}
				if s.Verdict == journal.VerdictDropped {
					dropped++
				}
			}
			if (dropped > 0) != tc.drops {
				t.Fatalf("%d of %d verdicts dropped; this budget should drop %v", dropped, len(simEvs), tc.drops)
			}
		})
	}
}

// simWeek replays the prototype through sim's EP with LAF at hourlyKWh
// per hour and returns the first week's journal events.
func simWeek(t *testing.T, start time.Time, planner core.Config, hourlyKWh float64) []journal.Event {
	t.Helper()
	res, err := home.Prototype(42)
	if err != nil {
		t.Fatal(err)
	}
	res.Years = 1
	res.Budget = units.Energy(hourlyKWh*ecp.HoursPerYear) * units.KilowattHour
	var evs firstWeek
	j := journal.New(1)
	j.SetSink(&evs)
	opts := sim.Options{Start: start, Planner: planner, Formula: ecp.LAF, PlanWindowHours: 1, Workers: 1, Journal: j}
	w, err := sim.BuildWorkload(res, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(w, sim.EP, opts); err != nil {
		t.Fatal(err)
	}
	return evs
}

// controllerWeek steps a controller over the prototype hourly for a
// week at weeklyKWh and returns its journal events.
func controllerWeek(t *testing.T, start time.Time, planner core.Config, weeklyKWh float64) []journal.Event {
	t.Helper()
	res, err := home.Prototype(42)
	if err != nil {
		t.Fatal(err)
	}
	var evs firstWeek
	j := journal.New(1)
	j.SetSink(&evs)
	clock := simclock.NewSimClock(start)
	c, err := New(Config{
		Residence:    res,
		Clock:        clock,
		Planner:      planner,
		WeeklyBudget: units.Energy(weeklyKWh) * units.KilowattHour,
		Journal:      j,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < weekHours; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Hour)
	}
	return evs
}
