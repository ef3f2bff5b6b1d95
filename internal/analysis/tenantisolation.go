package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// tenantIsolationPackages are the subtrees that handle tenant-scoped
// keys and directories: the daemon (which routes every tenant to its
// store namespace and on-disk layout) and the controller (which reads
// and writes tenant state through the Adapter it is handed).
var tenantIsolationPackages = []string{
	"internal/daemon",
	"internal/controller",
}

// tenantIsolationRule is the taint analysis guarding PR 7's isolation
// invariant: a tenant's keys and paths are unrepresentable outside its
// namespace because every key prefix flows through tenantStorePrefix
// (whose IDs ParseTenantID has vetted) and every tenant directory
// through tenantDir. The rule tracks two facts per variable over the
// CFG:
//
//   - must-clean (intersection join): the value is a compile-time
//     constant, the result of a sanctioned mediator
//     (tenantStorePrefix, tenantDir), or a value ParseTenantID has
//     validated on every path. Only clean values may reach store key
//     sinks — Adapter methods (Get/Put/Delete/Keys/GetJSON/PutJSON)
//     and the store.Namespace prefix argument.
//   - may-dynamic (union join): the value was assembled ad hoc —
//     filepath.Join/path.Join, fmt.Sprintf, strings.Join or string
//     concatenation. Dynamic values may not reach on-disk path sinks
//     (persistence.Open*/store Options.Dir); operator-configured
//     paths pass through untouched, but anything composed per tenant
//     must come from tenantDir.
//
// Mediators and the sanitizer are recognized by name
// (tenantStorePrefix, tenantDir, ParseTenantID): the names are the
// audited contract — a helper claiming one must enforce it.
type tenantIsolationRule struct{}

func (tenantIsolationRule) Name() string { return RuleTenantIsolation }
func (tenantIsolationRule) Doc() string {
	return "tenant keys/paths reach store.Adapter and disk only via Namespace/tenantStorePrefix/tenantDir or ParseTenantID-validated values"
}

func (r tenantIsolationRule) Check(m *Module, rep *Reporter) { checkEachPackage(r, m, rep) }

func (tenantIsolationRule) CheckPackage(m *Module, pkg *Package, rep *Reporter) {
	if !inAnyScope(pkg, tenantIsolationPackages) {
		return
	}
	for _, f := range pkg.Files {
		for _, u := range funcUnits(f) {
			checkTaintFunc(pkg.Info, rep, u)
		}
	}
}

// storeKeyMethods are the Adapter (and namespaced-view) methods whose
// first argument is a key in the tenant-shared keyspace.
var storeKeyMethods = map[string]bool{
	"Get": true, "Put": true, "Delete": true, "Keys": true,
	"GetJSON": true, "PutJSON": true,
}

// taintMediators produce values sanctioned for their sink class.
var taintMediators = map[string]bool{
	"tenantStorePrefix": true,
	"tenantDir":         true,
}

// dynStringBuilders are the package functions whose results count as
// ad-hoc string assembly.
var dynStringBuilders = map[string]map[string]bool{
	"path/filepath": {"Join": true},
	"path":          {"Join": true},
	"fmt":           {"Sprintf": true, "Sprint": true, "Sprintln": true},
	"strings":       {"Join": true},
}

// taintState tracks per-variable facts; see the rule comment.
type taintState struct {
	clean map[types.Object]bool // must-clean: intersection join
	dyn   map[types.Object]bool // may-dynamic: union join
}

func newTaintState() *taintState {
	return &taintState{clean: make(map[types.Object]bool), dyn: make(map[types.Object]bool)}
}

func cloneTaintState(s *taintState) *taintState {
	c := newTaintState()
	for o := range s.clean {
		c.clean[o] = true
	}
	for o := range s.dyn {
		c.dyn[o] = true
	}
	return c
}

func mergeTaintState(dst, src *taintState) bool {
	changed := false
	for o := range dst.clean {
		if !src.clean[o] {
			delete(dst.clean, o)
			changed = true
		}
	}
	for o := range src.dyn {
		if !dst.dyn[o] {
			dst.dyn[o] = true
			changed = true
		}
	}
	return changed
}

func checkTaintFunc(info *types.Info, rep *Reporter, u funcUnit) {
	cfg := BuildCFG(u.body)
	transfer := func(b *Block, s *taintState) *taintState {
		return transferTaint(info, b, s, nil)
	}
	ins := forwardFlow(cfg, newTaintState(), cloneTaintState, mergeTaintState, transfer)
	reach := cfg.Reachable()
	for i, blk := range cfg.Blocks {
		if !reach[i] || ins[i] == nil {
			continue
		}
		transferTaint(info, blk, cloneTaintState(ins[i]), rep)
	}
}

func transferTaint(info *types.Info, b *Block, s *taintState, rep *Reporter) *taintState {
	for _, n := range b.Nodes {
		walkLeaf(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				taintAssign(info, x, s)
			case *ast.ValueSpec:
				for i, name := range x.Names {
					var rhs ast.Expr
					if i < len(x.Values) {
						rhs = x.Values[i]
					}
					taintSetVar(info, s, info.Defs[name], rhs)
				}
			case *ast.CallExpr:
				taintCall(info, x, s, rep)
			case *ast.CompositeLit:
				if rep != nil {
					checkDirField(info, x, s, rep)
				}
			}
			return true
		})
	}
	return s
}

func taintAssign(info *types.Info, as *ast.AssignStmt, s *taintState) {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				taintSetVar(info, s, lhsObj(info, lhs), as.Rhs[i])
			}
			return
		}
		// Tuple assignment: results of a call, unknown provenance.
		for _, lhs := range as.Lhs {
			taintSetVar(info, s, lhsObj(info, lhs), nil)
		}
	case token.ADD_ASSIGN:
		// s += x is string assembly when s is a string.
		for _, lhs := range as.Lhs {
			if obj := lhsObj(info, lhs); obj != nil && isStringType(info.Types[lhs].Type) {
				delete(s.clean, obj)
				s.dyn[obj] = true
			}
		}
	}
}

// lhsObj resolves an assignment target identifier to its object.
func lhsObj(info *types.Info, lhs ast.Expr) types.Object {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	if def := info.Defs[id]; def != nil {
		return def
	}
	return info.Uses[id]
}

// taintSetVar records the facts a variable inherits from rhs (nil rhs
// means unknown provenance).
func taintSetVar(info *types.Info, s *taintState, obj types.Object, rhs ast.Expr) {
	if obj == nil {
		return
	}
	delete(s.clean, obj)
	delete(s.dyn, obj)
	if rhs == nil {
		return
	}
	if keyClean(info, s, rhs) {
		s.clean[obj] = true
	}
	if dynTainted(info, s, rhs) {
		s.dyn[obj] = true
	}
}

// calleeName resolves a call's function name for mediator/sanitizer
// matching ("" for indirect calls through non-selector expressions).
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// keyClean reports whether e is sanctioned for a store key sink.
func keyClean(info *types.Info, s *taintState, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if tv, ok := info.Types[e]; ok && tv.Value != nil {
			return true // named constant
		}
		return s.clean[info.Uses[e]]
	case *ast.CallExpr:
		return taintMediators[calleeName(e)]
	default:
		tv, ok := info.Types[ast.Expr(e)]
		return ok && tv.Value != nil // constant expression (literals, folded concat)
	}
}

// dynTainted reports whether e is ad-hoc assembled (may-dynamic).
func dynTainted(info *types.Info, s *taintState, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return s.dyn[info.Uses[e]]
	case *ast.CallExpr:
		if taintMediators[calleeName(e)] {
			return false
		}
		if pkgPath, fn, ok := pkgFuncCall(info, e); ok {
			return dynStringBuilders[pkgPath][fn]
		}
		return false
	case *ast.BinaryExpr:
		if e.Op != token.ADD || !isStringType(info.Types[ast.Expr(e)].Type) {
			return false
		}
		tv, ok := info.Types[ast.Expr(e)]
		return !(ok && tv.Value != nil) // constant concat folds; anything else is assembly
	default:
		return false
	}
}

// taintCall applies a call's state effects (sanitization) and, in the
// reporting pass, checks its sink arguments.
func taintCall(info *types.Info, call *ast.CallExpr, s *taintState, rep *Reporter) {
	// Sanitizer: ParseTenantID(v) vets v's charset; after the call v is
	// safe as a key component on this path. (The guard is recognized
	// optimistically — validation-then-use is the repo idiom.)
	if calleeName(call) == "ParseTenantID" && len(call.Args) == 1 {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				s.clean[obj] = true
				delete(s.dyn, obj)
			}
		}
	}
	if rep == nil {
		return
	}
	// Key sinks: Adapter-shaped methods on internal/store types.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && storeKeyMethods[sel.Sel.Name] && len(call.Args) >= 1 {
		if pkgPath, _, ok := methodRecvType(info, sel); ok && pkgPathInScope(pkgPath, "internal/store") {
			if !keyClean(info, s, call.Args[0]) {
				rep.Report(call.Args[0].Pos(), RuleTenantIsolation,
					"store key %s is unmediated: use a constant, tenantStorePrefix/tenantDir, or a ParseTenantID-validated value",
					types.ExprString(call.Args[0]))
			}
		}
	}
	pkgPath, fn, ok := pkgFuncCall(info, call)
	if !ok {
		return
	}
	// The Namespace prefix IS the tenant boundary.
	if pkgPathInScope(pkgPath, "internal/store") && fn == "Namespace" && len(call.Args) >= 2 {
		if !keyClean(info, s, call.Args[1]) {
			rep.Report(call.Args[1].Pos(), RuleTenantIsolation,
				"store.Namespace prefix %s is unmediated: derive it via tenantStorePrefix on a ParseTenantID-validated ID",
				types.ExprString(call.Args[1]))
		}
	}
	// Path sinks: per-tenant persistence roots.
	if pkgPathInScope(pkgPath, "internal/persistence") && len(call.Args) >= 1 {
		switch fn {
		case "Open", "OpenFS", "OpenJournal", "OpenJournalFile":
			if dynTainted(info, s, call.Args[0]) {
				rep.Report(call.Args[0].Pos(), RuleTenantIsolation,
					"on-disk path %s is assembled ad hoc: derive tenant directories via tenantDir",
					types.ExprString(call.Args[0]))
			}
		}
	}
}

// checkDirField flags dynamically assembled Dir fields in store option
// literals.
func checkDirField(info *types.Info, lit *ast.CompositeLit, s *taintState, rep *Reporter) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !pkgPathInScope(named.Obj().Pkg().Path(), "internal/store") {
		return
	}
	name := named.Obj().Name()
	if name != "Options" {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Dir" {
			continue
		}
		if dynTainted(info, s, kv.Value) {
			rep.Report(kv.Value.Pos(), RuleTenantIsolation,
				"store %s.Dir %s is assembled ad hoc: derive tenant directories via tenantDir",
				name, types.ExprString(kv.Value))
		}
	}
}
