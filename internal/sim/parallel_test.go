package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/core"
)

// TestBuildWorkloadParallelEquivalence asserts the sharded precompute
// fill produces exactly the sequential fill's data.
func TestBuildWorkloadParallelEquivalence(t *testing.T) {
	res := oneYearFlat(t)
	seq, err := BuildWorkload(res, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildWorkload(res, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.ambient, par.ambient) {
		t.Error("parallel ambient precompute differs from sequential")
	}
	if !reflect.DeepEqual(seq.envs, par.envs) {
		t.Error("parallel env precompute differs from sequential")
	}
}

// TestRunPipelineMatchesSequential is the determinism contract of the
// prefetch pipeline: for every algorithm, Run with the prefetch producer must
// produce a byte-identical Result (modulo wall-clock F_T) to the fully
// sequential fallback at the same seed.
func TestRunPipelineMatchesSequential(t *testing.T) {
	w := buildWorkload(t, oneYearFlat(t))
	cases := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"weekly-window", Options{PlanWindowHours: 7 * 24}},
		{"odd-window", Options{PlanWindowHours: 7}},
		{"no-ledger", Options{NoCarryOver: true}},
		{"savings", Options{Savings: 0.3}},
	}
	for _, alg := range []Algorithm{NR, IFTTT, EP, MR} {
		for _, tc := range cases {
			if alg != EP && tc.name != "default" {
				continue // baselines are window- and ledger-invariant
			}
			seqOpts := tc.opts
			seqOpts.Workers = 1
			seqOpts.Planner.Seed = 1234
			parOpts := tc.opts
			parOpts.Workers = 8
			parOpts.Planner.Seed = 1234

			seq, err := Run(w, alg, seqOpts)
			if err != nil {
				t.Fatalf("%v/%s sequential: %v", alg, tc.name, err)
			}
			par, err := Run(w, alg, parOpts)
			if err != nil {
				t.Fatalf("%v/%s parallel: %v", alg, tc.name, err)
			}
			// F_T is wall-clock and legitimately differs between runs.
			seq.PlannerTime, par.PlannerTime = 0, 0
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%v/%s: parallel Run diverged from sequential:\nseq: %+v\npar: %+v", alg, tc.name, seq, par)
			}
		}
	}
}

// TestRunPipelineErrorPropagates ensures a planner error inside the
// sequential consumer loop tears the pipeline down cleanly — the
// producer exits, no deadlock — and surfaces the error.
func TestRunPipelineErrorPropagates(t *testing.T) {
	res := oneYearFlat(t)
	// Inflate the MRT until more than ExhaustiveMaxN convenience rules
	// are active per daily window (the flat template is 4 convenience +
	// 2 necessity rules), so the exhaustive engine fails inside the
	// consumer on the first window.
	base := res.MRT.Rules
	for copyNo := 0; len(res.MRT.Rules) <= 40; copyNo++ {
		for _, r := range base {
			r.ID = fmt.Sprintf("%s/dup%d", r.ID, copyNo)
			res.MRT.Rules = append(res.MRT.Rules, r)
		}
	}
	w := buildWorkload(t, res)
	if w.RuleCount() <= core.ExhaustiveMaxN {
		t.Fatalf("test premise broken: %d convenience rules ≤ ExhaustiveMaxN", w.RuleCount())
	}
	opts := Options{Workers: 4}
	opts.Planner.Heuristic = core.Exhaustive
	done := make(chan error, 1)
	go func() {
		_, err := Run(w, EP, opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("oversized exhaustive window did not error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline deadlocked on consumer error")
	}
}
