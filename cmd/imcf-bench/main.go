// Command imcf-bench regenerates the tables and figures of the IMCF
// paper's evaluation (ICDE 2021, Section III).
//
// Usage:
//
//	imcf-bench [-run all|table1|table2|table3|fig6|fig7|fig8|fig9|table4|table5|ablations]
//	           [-reps N] [-datasets Flat,House,Dorms] [-seed N] [-parallel N]
//	           [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// Each experiment prints the same rows/series the paper reports, with
// mean ± standard deviation over the configured repetitions. Performance
// of the serving path is measured by the checked benchmark
// (_benchmark/README.md), not by this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/imcf/imcf/internal/bench"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiment to run: all, table1, table2, table3, fig6, fig7, fig8, fig9, table4, table5, ablations")
		reps       = flag.Int("reps", 10, "repetitions per configuration")
		datasets   = flag.String("datasets", "Flat,House,Dorms", "comma-separated datasets")
		seed       = flag.Uint64("seed", 42, "base random seed")
		format     = flag.String("format", "text", "output format: text or json (json covers fig6-9 and the prototype)")
		specPath   = flag.String("spec", "", "JSON experiment spec file (runs instead of the built-in experiments)")
		parallel   = flag.Int("parallel", 0, "suite-wide simulation runs in flight (0 = GOMAXPROCS, 1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	suite := &bench.Suite{Reps: *reps, Seed: *seed, Parallel: *parallel}
	for _, d := range strings.Split(*datasets, ",") {
		if d = strings.TrimSpace(d); d != "" {
			suite.Datasets = append(suite.Datasets, d)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imcf-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "imcf-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "imcf-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "imcf-bench: %v\n", err)
			}
		}()
	}

	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imcf-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := suite.RunSpecFile(f, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "imcf-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *format == "json" {
		if err := emitJSON(suite, *run); err != nil {
			fmt.Fprintf(os.Stderr, "imcf-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *format != "text" {
		fmt.Fprintf(os.Stderr, "imcf-bench: unknown format %q\n", *format)
		os.Exit(2)
	}

	experiments := []struct {
		name string
		fn   func() error
	}{
		{name: "table1", fn: func() error { return bench.Table1(os.Stdout) }},
		{name: "table2", fn: func() error { return bench.Table2(os.Stdout) }},
		{name: "table3", fn: func() error { return bench.Table3(os.Stdout) }},
		{name: "fig6", fn: func() error { return suite.Fig6(os.Stdout) }},
		{name: "fig7", fn: func() error { return suite.Fig7(os.Stdout) }},
		{name: "fig8", fn: func() error { return suite.Fig8(os.Stdout) }},
		{name: "fig9", fn: func() error { return suite.Fig9(os.Stdout) }},
		{name: "table4", fn: func() error { return suite.Table4(os.Stdout) }},
		{name: "table5", fn: func() error { return suite.Table5(os.Stdout) }},
		{name: "ablations", fn: func() error { return suite.Ablations(os.Stdout) }},
	}

	ran := false
	for _, e := range experiments {
		if *run != "all" && *run != e.name {
			continue
		}
		ran = true
		start := time.Now()
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "imcf-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "imcf-bench: unknown experiment %q\n", *run)
		os.Exit(2)
	}
}

// emitJSON runs the structured experiments and prints one JSON document.
func emitJSON(suite *bench.Suite, run string) error {
	out := make(map[string]any)
	want := func(name string) bool { return run == "all" || run == name }
	if want("fig6") {
		rows, err := suite.RunFig6()
		if err != nil {
			return err
		}
		out["fig6"] = rows
	}
	if want("fig7") {
		rows, err := suite.RunFig7()
		if err != nil {
			return err
		}
		out["fig7"] = rows
	}
	if want("fig8") {
		rows, err := suite.RunFig8()
		if err != nil {
			return err
		}
		out["fig8"] = rows
	}
	if want("fig9") {
		rows, err := suite.RunFig9()
		if err != nil {
			return err
		}
		out["fig9"] = rows
	}
	if want("table4") || want("table5") {
		r, err := suite.RunPrototype()
		if err != nil {
			return err
		}
		out["prototype"] = r
	}
	if len(out) == 0 {
		return fmt.Errorf("experiment %q has no JSON form (use -format text)", run)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
