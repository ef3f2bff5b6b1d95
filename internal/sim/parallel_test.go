package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/core"
	"github.com/imcf/imcf/internal/metrics"
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
// prefetch pipeline: for every algorithm, Run with a producer pool must
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
			// F_T and the latency histogram are wall-clock and
			// legitimately differ between runs.
			seq.PlannerTime, par.PlannerTime = 0, 0
			seq.PlanLatency, par.PlanLatency = metrics.Snapshot{}, metrics.Snapshot{}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%v/%s: parallel Run diverged from sequential:\nseq: %+v\npar: %+v", alg, tc.name, seq, par)
			}
		}
	}
}

// TestRunPipelineErrorPropagates ensures a planner error inside the
// sequential consumer loop tears the pipeline down cleanly — producers
// exit, no deadlock — and surfaces the error.
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

// TestRunPipelineDescheduledProducer pins the pipeline against the
// deadlock where a producer is descheduled between claiming a window
// and taking a buffer for it: the other producer must not be able to
// fill every buffer with later windows while the consumer waits on the
// claimed one. The hook holds the producer of window 0 until another
// producer claims the window just past the buffer count (or a timeout
// passes), at Workers 2 with the minimum of in-flight buffers.
func TestRunPipelineDescheduledProducer(t *testing.T) {
	w := buildWorkload(t, oneYearFlat(t))
	const workers = 2
	inflight := workers * prefetchDepth
	release := make(chan struct{})
	var once sync.Once
	pipelineClaimHook = func(k int) {
		switch {
		case k == 0:
			select {
			case <-release:
			case <-time.After(500 * time.Millisecond):
			}
		case k >= inflight+1:
			once.Do(func() { close(release) })
		}
	}
	defer func() { pipelineClaimHook = nil }()

	opts := Options{Workers: workers}
	opts.Planner.Seed = 1234
	done := make(chan error, 1)
	go func() {
		_, err := Run(w, EP, opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipelined EP replay deadlocked with a descheduled producer")
	}
}
