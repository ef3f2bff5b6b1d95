package controller

import (
	"testing"
	"time"

	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/units"
)

// stepAllocBudget bounds the allocations of one warm planning step that
// drops no rule, with Journal and Stream unset: the report's one
// Executed/Dropped array and nothing else. The step's working slices
// live in controller-owned scratch (stepScratch), so a regression here
// (a new per-step slice, a copied MRT) fails scripts/check.sh.
const stepAllocBudget = 1

// TestAllocsTraceControllerStep is the allocation gate on the
// controller's planning step. At 19:00 five of the prototype's rules
// are active; an ample budget keeps every one of them executed, so no
// drop-only cost (the PerRule map, block reasons) is measured.
func TestAllocsTraceControllerStep(t *testing.T) {
	c := newController(t, func(cfg *Config) {
		cfg.Clock = simclock.NewSimClock(time.Date(2015, time.January, 10, 19, 0, 0, 0, time.UTC))
		cfg.WeeklyBudget = 1e6 * units.KilowattHour
	})
	// Warm up: grow the scratch and fill the history ring, so its
	// append-phase growth is out of the picture.
	for i := 0; i < historyCap+1; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	report, _ := c.LastStep()
	if len(report.Executed) != 5 || report.Dropped != nil {
		t.Fatalf("warm step executed %d, dropped %v; want 5 executed and none dropped", len(report.Executed), report.Dropped)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > stepAllocBudget {
		t.Errorf("a warm step allocates %.1f times, budget %d: step scratch stopped being reused", allocs, stepAllocBudget)
	}
}
