package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runSteady is the steadiness tool: it runs every workload n times as
// separate processes of this binary, each with its own seed (seed,
// seed+1, …), reversing the order of the workloads every other pair of
// passes, and prints the median, quartiles and spread (the distance
// between the quartiles as a share of the median) of each end-to-end
// metric and of the unbounded timings every run prints.
// It also splits the passes into two alternating sets, even and odd,
// each holding both orders, and prints each set's median and how far
// the odd set's lies from the even set's. These are the runs the bounds
// in BENCHMARK.json are drawn from. The per-run results are kept in
// .bench_build/steady.json.
func runSteady(out io.Writer, root, build string, seed uint64, seconds float64, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type runOut struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Pass     int    `json:"pass"`
		result
	}
	var runs []runOut
	for pass := 0; pass < n; pass++ {
		order := append([]string(nil), workloadNames...)
		if (pass/2)%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		s := seed + uint64(pass)
		for _, w := range order {
			cmd := exec.Command(self, "-root", root, "-workload", w,
				"-seed", strconv.FormatUint(s, 10), "-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0")
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			var last string
			timings := map[string]metric{}
			sc := bufio.NewScanner(&stdout)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				last = sc.Text()
				if t, ok := strings.CutPrefix(last, timingsPrefix); ok {
					if err := json.Unmarshal([]byte(t), &timings); err != nil {
						return fmt.Errorf("%s seed %d: timings line: %w", w, s, err)
					}
				}
			}
			var r result
			if err := json.Unmarshal([]byte(last), &r); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, s, err)
			}
			for k, m := range timings {
				r.Metrics[k] = m // summarised beside the bounded metrics
			}
			runs = append(runs, runOut{w, s, pass, r})
			fmt.Fprintf(out, "# pass %d %-12s seed %-4d correct=%v attempted=%d failed=%d\n", pass, w, s, r.Correct, r.Attempted, r.Failed)
		}
	}
	summary := map[string]map[string]map[string]float64{}
	for _, w := range workloadNames {
		values := map[string][]float64{}
		sets := [2]map[string][]float64{{}, {}}
		var shares []float64
		for _, r := range runs {
			if r.Workload != w {
				continue
			}
			for k, m := range r.Metrics {
				values[k] = append(values[k], m.Value)
				sets[r.Pass%2][k] = append(sets[r.Pass%2][k], m.Value)
			}
			shares = append(shares, float64(r.Failed)/float64(r.Attempted))
		}
		summary[w] = map[string]map[string]float64{}
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "# %s (%d runs; failed share min %g max %g)\n", w, len(shares), minOf(shares), maxOf(shares))
		for _, k := range names {
			q1, med, q3 := quartiles(values[k])
			spread := (q3 - q1) / med
			eq1, even, eq3 := quartiles(sets[0][k])
			oq1, odd, oq3 := quartiles(sets[1][k])
			summary[w][k] = map[string]float64{"q1": q1, "median": med, "q3": q3, "spread": spread,
				"min": minOf(values[k]), "max": maxOf(values[k]),
				"even_median": even, "even_spread": (eq3 - eq1) / even, "odd_median": odd, "odd_spread": (oq3 - oq1) / odd}
			fmt.Fprintf(out, "#   %-20s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%  sets %12.6g / %12.6g (%+.2f%%; spreads %.2f%% / %.2f%%)\n",
				k, med, q1, q3, 100*spread, even, odd, 100*(odd/even-1), 100*(eq3-eq1)/even, 100*(oq3-oq1)/odd)
		}
	}
	b, err := json.MarshalIndent(map[string]any{"seconds": seconds, "runs": runs, "summary": summary}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(build, "steady.json"), b, 0o644)
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
