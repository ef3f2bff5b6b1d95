package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goLeakPackages are the long-lived serving processes where an
// unjoined goroutine outlives its owner: the daemon with its schedule
// loop, the fleet scheduler and the controller.
var goLeakPackages = []string{
	"internal/daemon",
	"internal/fleet",
	"internal/controller",
}

// goLeakRule flags goroutine launches with no visible join discipline.
// A launched function literal is considered joined when its body
// contains any of:
//
//   - a WaitGroup Done (deferred or not) — the launcher Waits;
//   - a channel receive, select or range-over-channel — the goroutine
//     parks on a quit/ctx-done/work channel the owner controls;
//   - a channel send — a completion signal the owner consumes.
//
// Launching a named function (`go f()`) hides the body from this
// intraprocedural check and is flagged: wrap the call in a literal
// that carries the join.
type goLeakRule struct{}

func (goLeakRule) Name() string { return RuleGoLeak }
func (goLeakRule) Doc() string {
	return "goroutines in daemon/fleet/controller need a WaitGroup, ctx-done/quit-channel or completion-send join"
}

func (r goLeakRule) Check(m *Module, rep *Reporter) { checkEachPackage(r, m, rep) }

func (goLeakRule) CheckPackage(m *Module, pkg *Package, rep *Reporter) {
	if !inAnyScope(pkg, goLeakPackages) {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, isLit := g.Call.Fun.(*ast.FuncLit)
			if !isLit {
				rep.Report(g.Pos(), RuleGoLeak,
					"goroutine launches a named function; wrap it in a literal that joins (WaitGroup/quit channel/completion send)")
				return true
			}
			if !goroutineJoined(pkg, lit.Body) {
				rep.Report(g.Pos(), RuleGoLeak,
					"goroutine has no join on any path: add a WaitGroup Done, a quit/ctx-done channel, or a completion send")
			}
			return true
		})
	}
}

// goroutineJoined scans a launched literal's body for a join marker.
func goroutineJoined(pkg *Package, body *ast.BlockStmt) bool {
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			joined = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				joined = true
			}
		case *ast.RangeStmt:
			if ch, ok := pkg.Info.Types[x.X]; ok {
				if _, isChan := ch.Type.Underlying().(*types.Chan); isChan {
					joined = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if pkgPath, typeName, ok := methodRecvType(pkg.Info, sel); ok &&
					pkgPath == "sync" && typeName == "WaitGroup" {
					joined = true
				}
			}
		}
		return !joined
	})
	return joined
}
