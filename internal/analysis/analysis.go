// Package analysis implements imcf-lint: a project-native static
// analysis suite that machine-checks the repository's cross-cutting
// invariants — the allocation-free planner and metrics hot paths
// (//imcf:noalloc), replay determinism in the simulation packages,
// metrics-registry hygiene, discarded errors on the serving path, and
// mixed atomic/plain access to shared state.
//
// The framework is standard-library only: packages are parsed with
// go/parser and type-checked with go/types using the source importer,
// so the linter builds and runs wherever the repository does, with no
// dependency on golang.org/x/tools.
//
// Two comment directives steer the rules:
//
//	//imcf:noalloc              annotates a function whose body must
//	                            stay allocation-free (doc comment)
//	//imcf:allow <rule> <why>   waives every <rule> finding on the same
//	                            or the following line
//
// The err-drop rule additionally honors the repository's pre-existing
// //nolint:errcheck convention.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Rule names, as used by waiver comments and enable flags.
const (
	RuleNoalloc         = "noalloc"
	RuleDeterminism     = "determinism"
	RuleMetricsHygiene  = "metrics-hygiene"
	RuleErrDrop         = "err-drop"
	RuleAtomicMix       = "atomic-mix"
	RuleLockDiscipline  = "lockdiscipline"
	RuleTenantIsolation = "tenantisolation"
	RuleOSBypass        = "osbypass"
	RuleGoLeak          = "goleak"
	RuleLogHygiene      = "loghygiene"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Rule string `json:"rule"`
	// File is the module-relative, slash-separated file path.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Message describes the violation.
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Rule is one check of the suite. Rules inspect the whole module so
// cross-package rules (metrics-hygiene, atomic-mix) fit the same shape
// as per-function ones.
type Rule interface {
	// Name is the rule's identifier ("noalloc").
	Name() string
	// Doc is a one-line description shown by the driver.
	Doc() string
	// Check inspects the module and reports findings.
	Check(m *Module, rep *Reporter)
}

// AllRules returns the full suite in its canonical order.
func AllRules() []Rule {
	return []Rule{
		noallocRule{},
		determinismRule{},
		metricsHygieneRule{},
		errDropRule{},
		atomicMixRule{},
		lockDisciplineRule{},
		tenantIsolationRule{},
		osBypassRule{},
		goLeakRule{},
		logHygieneRule{},
	}
}

// packageRule is implemented by rules whose work decomposes per
// package; RunWith fans those (rule, package) units over the worker
// pool instead of running the rule as one unit.
type packageRule interface {
	Rule
	CheckPackage(m *Module, pkg *Package, rep *Reporter)
}

// checkEachPackage is the sequential Check implementation shared by
// packageRule implementations.
func checkEachPackage(r packageRule, m *Module, rep *Reporter) {
	for _, pkg := range m.Pkgs {
		r.CheckPackage(m, pkg, rep)
	}
}

// waiverEntry is one waiver comment in the tree. used flips when the
// entry suppresses a finding, so StaleWaivers can report directives
// that outlived the code they excuse.
type waiverEntry struct {
	file string
	line int // line of the comment itself
	rule string
	// directive marks //imcf:allow comments; //nolint:errcheck is a
	// pre-existing convention outside the staleness contract.
	directive bool
	used      bool
}

// Waiver identifies one stale //imcf:allow directive.
type Waiver struct {
	File string
	Line int
	Rule string
}

// String renders the stale waiver in file:line form.
func (w Waiver) String() string {
	return fmt.Sprintf("%s:%d: //imcf:allow %s", w.File, w.Line, w.Rule)
}

// Reporter collects findings and applies waiver directives. It is safe
// for concurrent use by RunWith's worker pool.
type Reporter struct {
	fset *token.FileSet
	root string
	// waived maps file → line → rule → the covering waiver entry. A
	// comment at line L is indexed at L and covers findings at L and
	// L+1 (Waived checks line and line-1).
	waived   map[string]map[int]map[string]*waiverEntry
	mu       sync.Mutex
	findings []Finding
}

// NewReporter builds a reporter for the module, indexing every waiver
// comment (//imcf:allow and //nolint:errcheck) up front.
func NewReporter(m *Module) *Reporter {
	r := &Reporter{
		fset:   m.Fset,
		root:   m.Root,
		waived: make(map[string]map[int]map[string]*waiverEntry),
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			r.indexWaivers(f)
		}
	}
	return r
}

// indexWaivers records the waiver directives of one file.
func (r *Reporter) indexWaivers(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			var rule string
			directive := false
			switch {
			case strings.HasPrefix(text, "imcf:allow"):
				fields := strings.Fields(strings.TrimPrefix(text, "imcf:allow"))
				if len(fields) == 0 {
					continue
				}
				rule = fields[0]
				directive = true
			case strings.HasPrefix(text, "nolint") && strings.Contains(text, "errcheck"):
				rule = RuleErrDrop
			default:
				continue
			}
			pos := r.fset.Position(c.Pos())
			file := r.relFile(pos.Filename)
			if r.waived[file] == nil {
				r.waived[file] = make(map[int]map[string]*waiverEntry)
			}
			if r.waived[file][pos.Line] == nil {
				r.waived[file][pos.Line] = make(map[string]*waiverEntry)
			}
			if r.waived[file][pos.Line][rule] == nil {
				r.waived[file][pos.Line][rule] = &waiverEntry{
					file: file, line: pos.Line, rule: rule, directive: directive,
				}
			}
		}
	}
}

// relFile converts an absolute file name to the module-relative form
// used in findings.
func (r *Reporter) relFile(filename string) string {
	if rel, err := filepath.Rel(r.root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// Waived reports whether the rule is waived at the file's line: by a
// trailing directive on the line itself or a directive on the line
// directly above. A match marks the waiver used for StaleWaivers.
func (r *Reporter) Waived(rule, file string, line int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.waivedLocked(rule, file, line)
}

func (r *Reporter) waivedLocked(rule, file string, line int) bool {
	byLine := r.waived[file]
	for _, l := range [2]int{line, line - 1} {
		if e := byLine[l][rule]; e != nil {
			e.used = true
			return true
		}
	}
	return false
}

// Report records a finding at pos unless a waiver covers it.
func (r *Reporter) Report(pos token.Pos, rule, format string, args ...any) {
	p := r.fset.Position(pos)
	file := r.relFile(p.Filename)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.waivedLocked(rule, file, p.Line) {
		return
	}
	r.findings = append(r.findings, Finding{
		Rule:    rule,
		File:    file,
		Line:    p.Line,
		Col:     p.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// StaleWaivers returns the //imcf:allow directives that suppressed
// nothing, restricted to rules in the given set — a waiver for a rule
// that did not run cannot be judged stale. Results are sorted by file,
// line and rule. //nolint comments are outside the staleness contract.
func (r *Reporter) StaleWaivers(rulesRun []string) []Waiver {
	ran := make(map[string]bool, len(rulesRun))
	for _, name := range rulesRun {
		ran[name] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Waiver
	for _, byLine := range r.waived {
		for _, byRule := range byLine {
			for _, e := range byRule {
				if e.directive && !e.used && ran[e.rule] {
					out = append(out, Waiver{File: e.file, Line: e.line, Rule: e.rule})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Rule < b.Rule
	})
	return out
}

// Findings returns the collected findings sorted by file, line, column
// and rule. The sort makes the output order deterministic regardless
// of how many workers produced the findings.
func (r *Reporter) Findings() []Finding {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.findings, func(i, j int) bool {
		a, b := r.findings[i], r.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return r.findings
}

// Run executes the given rules over the module sequentially and
// returns the sorted findings.
func Run(m *Module, rules []Rule) []Finding {
	rep := NewReporter(m)
	RunWith(rep, m, rules, 1)
	return rep.Findings()
}

// lintUnit is one schedulable piece of work for the pool.
type lintUnit struct {
	rule string
	run  func(*Reporter)
}

// RunWith executes the rules over the module on a bounded pool of
// workers, reporting into rep. Package-decomposable rules fan out one
// unit per (rule, package); module-wide rules run as a single unit.
// Finding order is deterministic because the Reporter sorts, and the
// rules themselves only append through the locked Reporter. The
// returned map holds per-rule CPU-time totals (summed across workers,
// so a rule's figure can exceed wall time).
func RunWith(rep *Reporter, m *Module, rules []Rule, workers int) map[string]time.Duration {
	var units []lintUnit
	for _, rule := range rules {
		if pr, ok := rule.(packageRule); ok {
			for _, pkg := range m.Pkgs {
				pkg := pkg
				units = append(units, lintUnit{pr.Name(), func(rep *Reporter) {
					pr.CheckPackage(m, pkg, rep)
				}})
			}
			continue
		}
		rule := rule
		units = append(units, lintUnit{rule.Name(), func(rep *Reporter) {
			rule.Check(m, rep)
		}})
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(units) {
		workers = len(units)
	}
	var (
		timingMu sync.Mutex
		timing   = make(map[string]time.Duration, len(rules))
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				u := units[i]
				start := time.Now()
				u.run(rep)
				d := time.Since(start)
				timingMu.Lock()
				timing[u.rule] += d
				timingMu.Unlock()
			}
		}()
	}
	wg.Wait()
	return timing
}

// noallocAnnotated reports whether the function declaration carries the
// //imcf:noalloc contract in its doc comment.
func noallocAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "imcf:noalloc" || strings.HasPrefix(text, "imcf:noalloc ") {
			return true
		}
	}
	return false
}

// funcName renders a declaration's name, with the receiver type for
// methods ("Planner.hillClimb").
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
