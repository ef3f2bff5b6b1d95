package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// fixtureModule loads the fixture module once per test binary: the
// source importer's standard-library type-checking dominates load time.
var fixtureModule = sync.OnceValues(func() (*Module, error) {
	return LoadModule(filepath.Join("testdata", "src", "fixtures"))
})

func loadFixtures(t *testing.T) *Module {
	t.Helper()
	m, err := fixtureModule()
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	return m
}

// TestRulesGolden runs each rule alone over the fixture module and
// compares its findings with the rule's golden file. Every rule must
// fire on its positive fixtures; the negative fixtures assert silence
// by omission from the golden.
func TestRulesGolden(t *testing.T) {
	m := loadFixtures(t)
	for _, rule := range AllRules() {
		t.Run(rule.Name(), func(t *testing.T) {
			var sb strings.Builder
			for _, f := range Run(m, []Rule{rule}) {
				sb.WriteString(f.String())
				sb.WriteByte('\n')
			}
			got := sb.String()
			golden := filepath.Join("testdata", rule.Name()+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings diverge from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
			if got == "" {
				t.Errorf("rule %s produced no findings on its positive fixtures", rule.Name())
			}
		})
	}
}

// TestRuleDocs ensures every rule carries a non-empty one-line doc for
// the driver's -list output.
func TestRuleDocs(t *testing.T) {
	seen := make(map[string]bool)
	for _, rule := range AllRules() {
		if rule.Name() == "" || rule.Doc() == "" {
			t.Errorf("rule %T has empty name or doc", rule)
		}
		if strings.ContainsAny(rule.Doc(), "\n") {
			t.Errorf("rule %s doc is not one line", rule.Name())
		}
		if seen[rule.Name()] {
			t.Errorf("duplicate rule name %s", rule.Name())
		}
		seen[rule.Name()] = true
	}
}

// TestRealModuleClean is the acceptance criterion as a regression test:
// the repository's own tree must lint clean — every real finding fixed
// or explicitly waived.
func TestRealModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the full module via the source importer is slow")
	}
	m, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading repository module: %v", err)
	}
	if m.Path != "github.com/imcf/imcf" {
		t.Fatalf("unexpected module path %q", m.Path)
	}
	findings := Run(m, AllRules())
	for _, f := range findings {
		t.Errorf("repository tree is not lint-clean: %s", f)
	}
}

// TestFindingString pins the conventional file:line:col rendering.
func TestFindingString(t *testing.T) {
	f := Finding{Rule: "noalloc", File: "a/b.go", Line: 3, Col: 7, Message: "boom"}
	if got, want := f.String(), "a/b.go:3:7: [noalloc] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestWaivedDirectives checks the waiver index directly: same-line and
// line-above coverage, and rule specificity.
func TestWaivedDirectives(t *testing.T) {
	m := loadFixtures(t)
	rep := NewReporter(m)
	// DropWaived in internal/store/errdrop.go: //nolint:errcheck sits on
	// line 40, //imcf:allow err-drop on line 41 covering line 42.
	file := "internal/store/errdrop.go"
	if !rep.Waived(RuleErrDrop, file, 40) {
		t.Errorf("nolint:errcheck on %s:40 not indexed", file)
	}
	if !rep.Waived(RuleErrDrop, file, 42) {
		t.Errorf("imcf:allow on %s:41 does not cover the following line", file)
	}
	if rep.Waived(RuleNoalloc, file, 42) {
		t.Error("err-drop waiver must not waive noalloc")
	}
	if rep.Waived(RuleErrDrop, file, 7) {
		t.Error("waiver leaked to an uncovered line")
	}
}

// TestModuleLookupAndScope covers the module accessors the rules build
// on.
func TestModuleLookupAndScope(t *testing.T) {
	m := loadFixtures(t)
	pkg := m.Lookup("fixtures.test/internal/core")
	if pkg == nil {
		t.Fatal("Lookup failed for fixture core package")
	}
	if !pkg.InScope("internal/core") {
		t.Error("suffix scope match failed")
	}
	if pkg.InScope("ternal/core") {
		t.Error("InScope must match whole path segments only")
	}
	if m.Lookup("no/such/pkg") != nil {
		t.Error("Lookup invented a package")
	}
	if got := m.Lookup("fixtures.test"); got != nil {
		t.Error("fixture module has no root package; Lookup should return nil")
	}
}
