// Command imcf-lint runs the project-native static-analysis suite over
// the module: the noalloc, determinism, metrics-hygiene, err-drop and
// atomic-mix rules plus the CFG-based lockdiscipline, tenantisolation,
// osbypass and goleak rules (see internal/analysis).
//
// Usage:
//
//	imcf-lint [flags] [./...]
//
// The positional package pattern is accepted for familiarity; the
// linter always analyzes the whole module rooted at -C (the rules are
// module-wide by design). Rules fan out over -parallel workers;
// -timing prints a per-rule cost breakdown.
//
// An //imcf:allow waiver is the one way to suppress a finding.
//
// Exit status: 0 when clean, 1 when findings remain, 2 on usage or
// load errors and on //imcf:allow waivers that suppress no findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"github.com/imcf/imcf/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imcf-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root      = fs.String("C", ".", "module root directory to analyze")
		jsonOut   = fs.Bool("json", false, "emit findings as JSON")
		listRules = fs.Bool("list", false, "list the rules and exit")
		parallel  = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size for rule×package units")
		timing    = fs.Bool("timing", false, "print per-rule execution time")
	)
	enabled := make(map[string]*bool, len(analysis.AllRules()))
	for _, r := range analysis.AllRules() {
		enabled[r.Name()] = fs.Bool(r.Name(), true, "enable the "+r.Name()+" rule")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listRules {
		for _, r := range analysis.AllRules() {
			fmt.Fprintf(stdout, "%-16s %s\n", r.Name(), r.Doc())
		}
		return 0
	}
	for _, arg := range fs.Args() {
		// "./..." and "." are the familiar go-tool spellings for "the
		// whole module" — anything else is a misunderstanding of scope.
		if arg != "./..." && arg != "." {
			fmt.Fprintf(stderr, "imcf-lint: unsupported package pattern %q (the suite always analyzes the whole module; use -C to pick the module)\n", arg)
			return 2
		}
	}

	mod, err := analysis.LoadModule(*root)
	if err != nil {
		fmt.Fprintf(stderr, "imcf-lint: %v\n", err)
		return 2
	}
	var rules []analysis.Rule
	var ruleNames []string
	for _, r := range analysis.AllRules() {
		if *enabled[r.Name()] {
			rules = append(rules, r)
			ruleNames = append(ruleNames, r.Name())
		}
	}
	rep := analysis.NewReporter(mod)
	perRule := analysis.RunWith(rep, mod, rules, *parallel)
	findings := rep.Findings()
	if *timing {
		for _, name := range ruleNames {
			fmt.Fprintf(stderr, "imcf-lint: %-16s %8.1fms\n", name, float64(perRule[name].Microseconds())/1000)
		}
	}

	// A waiver that suppresses nothing has outlived the code it
	// excuses: it must be deleted, not left to silence a future
	// finding nobody audited.
	if stale := rep.StaleWaivers(ruleNames); len(stale) > 0 {
		for _, w := range stale {
			fmt.Fprintf(stderr, "imcf-lint: stale waiver: %s suppresses no findings; delete it\n", w)
		}
		return 2
	}

	if *jsonOut {
		out := struct {
			Module   string             `json:"module"`
			Findings []analysis.Finding `json:"findings"`
		}{mod.Path, findings}
		if out.Findings == nil {
			out.Findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "imcf-lint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
		if len(findings) > 0 {
			fmt.Fprintf(stderr, "imcf-lint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
