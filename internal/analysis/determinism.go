package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The determinism rule's scope is derived from the module's package
// graph, not a hand-maintained allowlist: every internal/* package is
// in scope unless determinismExcluded names it with a justification.
// New packages are therefore covered by default — the failure mode
// where internal/fleet shipped before anyone remembered to add it to
// the old determinismPackages list cannot recur. cmd/* binaries are
// out of scope structurally: they are operational entry points, not
// replay-path code.
//
// Exclusions are exact module-relative paths. Each entry must say why
// nondeterminism is acceptable there.
var determinismExcluded = map[string]string{
	"internal/metrics":     "timing substrate: histograms/spans measure real wall time by design",
	"internal/simclock":    "the injectable clock seam itself wraps time.Now",
	"internal/bench":       "benchmark harness: measures wall time by design",
	"internal/analysis":    "lint tooling, not replay-path code; times its own rule execution",
	"internal/faultfs":     "test seam for crash injection, not replay-path code",
	"internal/store":       "durability engine: fsync-latency metrics sample the wall clock",
	"internal/persistence": "recording service: segment names and sync cadences are wall-time-based",
	"internal/daemon":      "serving process: the schedule loop and uptime reporting read real time",
	"internal/controller":  "serving path: cron cadence is wall-time-driven",
	"internal/cloud":       "relay: request timing and backoff are wall-time-driven",
	"internal/client":      "SDK: retry backoff jitter is wall-time-driven",
	"internal/devicesim":   "device emulators: simulate real hardware latencies",
}

// determinismInScope derives the rule's scope from the package graph:
// module-relative internal/* packages minus the justified exclusions.
func determinismInScope(m *Module, p *Package) bool {
	rel := strings.TrimPrefix(p.Path, m.Path+"/")
	if rel == p.Path || !strings.HasPrefix(rel, "internal/") {
		return false
	}
	_, excluded := determinismExcluded[rel]
	return !excluded
}

// determinismRule forbids the three ways nondeterminism has crept into
// replayable engines: wall-clock reads (time.Now and friends), global
// math/rand (any use that is not a seeded generator constructed from an
// injected seed), and ranging over maps when the iteration feeds
// ordered output (accumulating floats, appending to slices that are not
// subsequently sorted, or any early break/return).
type determinismRule struct{}

func (determinismRule) Name() string { return RuleDeterminism }
func (determinismRule) Doc() string {
	return "every internal package not on the justified exclusion list must stay replay-deterministic"
}

func (r determinismRule) Check(m *Module, rep *Reporter) { checkEachPackage(r, m, rep) }

func (determinismRule) CheckPackage(m *Module, pkg *Package, rep *Reporter) {
	if !determinismInScope(m, pkg) {
		return
	}
	for _, f := range pkg.Files {
		checkDeterminismFile(pkg.Info, rep, f)
	}
}

func inAnyScope(p *Package, subtrees []string) bool {
	for _, s := range subtrees {
		if p.InScope(s) {
			return true
		}
	}
	return false
}

// wallClockFuncs are the time package's wall-clock reads. Duration
// arithmetic, timers and formatting are fine; sampling the clock is not.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// seededRandConstructors construct a generator from an injected source
// and are therefore allowed; every other math/rand selector implies the
// process-global generator (or an unseeded convenience wrapper).
var seededRandConstructors = map[string]bool{
	"New":        true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewSource":  true,
	"NewZipf":    true,
}

func checkDeterminismFile(info *types.Info, rep *Reporter, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			pkgPath, fn, ok := pkgFuncCall(info, x)
			if !ok {
				break
			}
			if pkgPath == "time" && wallClockFuncs[fn] {
				rep.Report(x.Pos(), RuleDeterminism,
					"time.%s reads the wall clock; inject time through the config instead", fn)
			}
			if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !seededRandConstructors[fn] {
				rep.Report(x.Pos(), RuleDeterminism,
					"%s.%s uses the shared global generator; use a rand.New(...) seeded from the config", pkgPath, fn)
			}
		case *ast.RangeStmt:
			checkMapRange(info, rep, f, x)
		}
		return true
	})
}

// checkMapRange classifies one range-over-map statement. Safe shapes:
//
//   - writes keyed by the loop variable (out[k] = ...) — order cannot
//     matter because each key lands in its own slot;
//   - integer or boolean accumulation (counting) — associative and
//     exact;
//   - append to a slice that a following statement sorts (the repo's
//     collect-then-sort idiom).
//
// Hazardous shapes: floating-point accumulation (rounding depends on
// order), appends never sorted, and any break/return inside the loop
// (first-match depends on order).
func checkMapRange(info *types.Info, rep *Reporter, f *ast.File, rs *ast.RangeStmt) {
	if !isMapType(info.Types[rs.X].Type) {
		return
	}
	h := &mapRangeHazards{info: info, file: f, rs: rs}
	h.scan()
	for _, hz := range h.found {
		rep.Report(hz.pos, RuleDeterminism, "map iteration order feeds ordered output: %s", hz.what)
	}
}

type hazard struct {
	pos  token.Pos
	what string
}

type mapRangeHazards struct {
	info *types.Info
	file *ast.File
	rs   *ast.RangeStmt
	// appended records slice targets appended to inside the loop that
	// still need a sort after it.
	appended []appendTarget
	found    []hazard
}

type appendTarget struct {
	expr string
	pos  token.Pos
}

func (h *mapRangeHazards) scan() {
	ast.Inspect(h.rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if x.Tok == token.BREAK && x.Label == nil {
				h.found = append(h.found, hazard{x.Pos(), "break makes the result depend on which key is seen first"})
			}
		case *ast.ReturnStmt:
			h.found = append(h.found, hazard{x.Pos(), "return inside the loop depends on iteration order"})
		case *ast.AssignStmt:
			h.assign(x)
		}
		return true
	})
	h.resolveAppends()
}

func (h *mapRangeHazards) assign(as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN || as.Tok == token.MUL_ASSIGN {
		for _, lhs := range as.Lhs {
			if h.keyedByLoopVar(lhs) {
				continue
			}
			if isFloatType(h.info.Types[lhs].Type) {
				h.found = append(h.found, hazard{as.Pos(),
					"floating-point accumulation rounds differently per iteration order"})
			}
		}
		return
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "append" {
			if _, isBuiltin := h.info.Uses[id].(*types.Builtin); isBuiltin {
				h.appended = append(h.appended, appendTarget{
					expr: types.ExprString(as.Lhs[i]),
					pos:  call.Pos(),
				})
			}
		}
	}
}

// keyedByLoopVar reports whether lhs is an index expression whose index
// mentions the range statement's key variable (out[k] or out[k].f),
// which makes per-iteration writes land in disjoint slots.
func (h *mapRangeHazards) keyedByLoopVar(lhs ast.Expr) bool {
	keyObj := h.loopKeyObj()
	if keyObj == nil {
		return false
	}
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			uses := false
			ast.Inspect(x.Index, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && h.info.Uses[id] == keyObj {
					uses = true
				}
				return true
			})
			return uses
		case *ast.SelectorExpr:
			lhs = x.X
		case *ast.ParenExpr:
			lhs = x.X
		default:
			return false
		}
	}
}

func (h *mapRangeHazards) loopKeyObj() types.Object {
	id, ok := h.rs.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	return h.info.Defs[id]
}

// sortFuncs are the sort/slices functions that restore a canonical
// order after a collect loop.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// resolveAppends keeps only append targets with no sort call following
// the loop in the enclosing statement list.
func (h *mapRangeHazards) resolveAppends() {
	if len(h.appended) == 0 {
		return
	}
	for _, at := range h.appended {
		if !h.sortedAfterLoop(at.expr) {
			h.found = append(h.found, hazard{at.pos,
				"appends " + at.expr + " in map order with no sort afterwards"})
		}
	}
}

// sortedAfterLoop scans the enclosing function for a sort call whose
// first argument is (or slices) the appended target, positioned after
// the loop. The function-wide scan is deliberately permissive: the
// repository's idiom sorts immediately after the collect loop, and a
// sort anywhere downstream in the same function restores determinism.
func (h *mapRangeHazards) sortedAfterLoop(target string) bool {
	scope := enclosingFunc(h.file, h.rs.Pos())
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || call.Pos() < h.rs.End() {
			return true
		}
		pkgPath, fn, ok := pkgFuncCall(h.info, call)
		if !ok {
			return true
		}
		base := pkgBase(pkgPath)
		if !sortFuncs[base][fn] || len(call.Args) == 0 {
			return true
		}
		arg := call.Args[0]
		if sl, isSlice := arg.(*ast.SliceExpr); isSlice {
			arg = sl.X
		}
		if types.ExprString(arg) == target {
			found = true
		}
		return true
	})
	return found
}

// enclosingFunc returns the innermost function declaration or literal
// containing pos, or the file itself when none does.
func enclosingFunc(f *ast.File, pos token.Pos) ast.Node {
	var best ast.Node = f
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				best = n
			}
		}
		return true
	})
	return best
}

func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
