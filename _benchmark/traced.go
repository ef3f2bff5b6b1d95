package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// runTraced is the traced run. The per-layer metrics span all three
// workloads (each layer is loaded by some of them and bypassed by the
// others), so a traced run passes through every workload, the named one
// first, sharing the seconds evenly. Within a workload, untraced and
// traced rounds alternate: the per-layer figures come from the traced
// rounds and the time per operation of the two kinds gives the tracing
// overhead.
func runTraced(out io.Writer, build, first string, e env, seconds float64) (result, error) {
	order := []string{first}
	for _, n := range workloadNames {
		if n != first {
			order = append(order, n)
		}
	}
	dir := filepath.Join(build, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	summary := map[string]any{}
	share := seconds / float64(len(order))
	for _, name := range order {
		we := e
		we.scratch = filepath.Join(e.scratch, name)
		if err := os.MkdirAll(we.scratch, 0o755); err != nil {
			return res, err
		}
		w, err := newWorkload(name, we)
		if err != nil {
			return res, err
		}
		runtime.GOMAXPROCS(procsFor(name))
		fail := func(stage string, err error) {
			res.Correct = false
			fmt.Fprintf(out, "# CHECK FAILED %s %s: %v\n", name, stage, err)
		}
		attempted0, failed0 := res.Attempted, res.Failed
		tr := newTracer()
		if err := w.setup(tr); err != nil {
			return res, fmt.Errorf("%s set-up: %w", name, err)
		}
		var warm latHist
		ops, failed, err := w.round(nil, &warm)
		if err != nil {
			return res, fmt.Errorf("%s warm-up round: %w", name, err)
		}
		res.Attempted += int64(ops)
		res.Failed += int64(failed)
		if err := w.check(); err != nil {
			fail("warm-up round", err)
		}

		var plain, traced phase
		for rounds := 0; plain.wall.Seconds()+traced.wall.Seconds() < share; rounds++ {
			for _, t := range []*tracer{nil, tr} {
				p := &plain
				if t != nil {
					p = &traced
				}
				if t != nil {
					w.beginTraced()
				}
				ops, failed, err := timedRound(w, t, p)
				if t != nil {
					w.endTraced()
				}
				if err != nil {
					return res, fmt.Errorf("%s round %d: %w", name, rounds, err)
				}
				res.Attempted += int64(ops)
				res.Failed += int64(failed)
				if err := w.check(); err != nil {
					fail(fmt.Sprintf("round %d", rounds), err)
				}
			}
			if x, ok := w.(extraRounder); ok {
				ops, err := x.extraRound(tr)
				if err != nil {
					return res, fmt.Errorf("%s extra round %d: %w", name, rounds, err)
				}
				res.Attempted += int64(ops)
			}
		}
		if err := w.finish(); err != nil {
			fail("end of run", err)
		}

		spans := tr.snapshot()
		layers := w.layers(spans)
		perOp := func(p phase) float64 { return p.wall.Seconds() / float64(p.ops) }
		overhead := 100 * (perOp(traced)/perOp(plain) - 1)
		layers["trace."+name+".overhead_pct"] = metric{overhead, "%"}
		self := selfTimes(spans)
		path := filepath.Join(dir, name+".spans.jsonl.gz")
		if err := tr.write(path); err != nil {
			return res, err
		}
		summary[name] = map[string]any{
			"spans":           len(spans),
			"spans_file":      path,
			"self_seconds":    self,
			"overhead_pct":    overhead,
			"traced_ops":      traced.ops,
			"untraced_ops":    plain.ops,
			"traced_wall_s":   traced.wall.Seconds(),
			"untraced_wall_s": plain.wall.Seconds(),
			"per_layer":       layers,
		}
		fmt.Fprintf(out, "# %s: %d ops attempted, %d failed; %d spans (%s), tracing overhead %.2f%% (%d traced / %d untraced ops)\n",
			name, res.Attempted-attempted0, res.Failed-failed0, len(spans), path, overhead, traced.ops, plain.ops)
		for span, s := range self {
			fmt.Fprintf(out, "#   self %-28s %12.6f s\n", span, s)
		}
		printMetrics(out, layers)
		for k, v := range layers {
			res.Metrics[k] = v
		}
	}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(filepath.Join(dir, "summary.json"), b, 0o644); err != nil {
		return res, err
	}
	return res, nil
}
