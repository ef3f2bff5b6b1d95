package controller

import (
	"testing"
	"time"

	"github.com/imcf/imcf/internal/persistence"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/stream"
	"github.com/imcf/imcf/internal/units"
)

// stepAllocBudget bounds the allocations of one warm planning step that
// drops no rule, with Journal unset and apart from what the step
// publishes: the report's one Executed/Dropped array and nothing else.
// The step's working slices live in controller-owned scratch
// (stepScratch), so a regression here (a new per-step slice, a copied
// MRT) fails scripts/check.sh.
const stepAllocBudget = 1

// TestAllocsTraceControllerStep is the allocation gate on the
// controller's planning step. At 19:00 five of the prototype's rules
// are active; an ample budget keeps every one of them executed, so no
// drop-only cost (the PerRule map, block reasons) is measured. With
// Persistence set, the step also records every zone's two readings
// under item names built once, in New, and must stay within the same
// budget.
func TestAllocsTraceControllerStep(t *testing.T) {
	if raceEnabled {
		// A step's publishes compact through a sync.Pool, so their
		// count varies from run to run under -race.
		t.Skip("sync.Pool drops a share of its puts under -race; check.sh runs this gate without it")
	}
	t.Run("bare", func(t *testing.T) { testStepAllocs(t, nil) })
	t.Run("persistence", func(t *testing.T) {
		svc, err := persistence.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		testStepAllocs(t, svc)
	})
}

func testStepAllocs(t *testing.T, svc *persistence.Service) {
	c := newController(t, func(cfg *Config) {
		cfg.Clock = simclock.NewSimClock(time.Date(2015, time.January, 10, 19, 0, 0, 0, time.UTC))
		cfg.WeeklyBudget = 1e6 * units.KilowattHour
		cfg.Persistence = svc
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
	// Every controller streams, so a step ends by publishing its plan
	// and its block set. Those encodings are the step's outputs, not
	// its scratch: they are measured on their own, the same two
	// publishes of the same values, and left out of the budget.
	report, _ = c.LastStep()
	published := testing.AllocsPerRun(100, func() {
		c.publishStream(stream.KindPlan, &report)
		c.publishStream(stream.KindFirewall, c.Firewall().Rules())
	})
	if allocs-published > stepAllocBudget {
		t.Errorf("a warm step allocates %.1f times, %.1f of them publishing, budget %d: step scratch stopped being reused",
			allocs, published, stepAllocBudget)
	}
}
