package sim

import (
	"testing"

	"github.com/imcf/imcf/internal/metrics"
)

// TestMetricsDoNotPerturbResults is the observer-effect contract of the
// instrumentation: a parallel run with metrics enabled must produce
// bit-identical F_CE and F_E (and all other replay-derived outputs) to
// a fully sequential run with metrics globally disabled. Counters and
// histograms only observe the replay; they never feed back into it.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	w := buildWorkload(t, oneYearFlat(t))
	for _, alg := range []Algorithm{NR, IFTTT, EP, MR} {
		offOpts := Options{Workers: 1}
		offOpts.Planner.Seed = 99
		before := metrics.PlannerWindowSeconds.Count()
		metrics.SetEnabled(false)
		off, err := Run(w, alg, offOpts)
		metrics.SetEnabled(true)
		if err != nil {
			t.Fatalf("%v disabled: %v", alg, err)
		}

		if n := metrics.PlannerWindowSeconds.Count() - before; n != 0 {
			t.Errorf("%v: disabled run recorded %d planner latency samples", alg, n)
		}

		before = metrics.PlannerWindowSeconds.Count()
		onOpts := Options{Workers: 8}
		onOpts.Planner.Seed = 99
		on, err := Run(w, alg, onOpts)
		if err != nil {
			t.Fatalf("%v enabled: %v", alg, err)
		}
		if metrics.PlannerWindowSeconds.Count() == before {
			t.Errorf("%v: enabled run recorded no planner latency samples", alg)
		}

		if on.ConvenienceError != off.ConvenienceError {
			t.Errorf("%v: F_CE %v (metrics on, parallel) != %v (metrics off, sequential)",
				alg, on.ConvenienceError, off.ConvenienceError)
		}
		if on.Energy != off.Energy {
			t.Errorf("%v: F_E %v (metrics on, parallel) != %v (metrics off, sequential)",
				alg, on.Energy, off.Energy)
		}
		if on.ActiveRuleSlots != off.ActiveRuleSlots || on.ExecutedRuleSlots != off.ExecutedRuleSlots {
			t.Errorf("%v: rule-slot accounting diverged: on %d/%d, off %d/%d",
				alg, on.ExecutedRuleSlots, on.ActiveRuleSlots, off.ExecutedRuleSlots, off.ActiveRuleSlots)
		}
	}
}
