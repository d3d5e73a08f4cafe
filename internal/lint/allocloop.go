package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerAllocLoop guards the incremental-evaluation contract of the
// placement layer: solvers run on netsim.State precisely so they never
// pay a full O(|F|·|P|) re-allocation per iteration. The analyzer
// flags, in tdmd/internal/placement only, any call to the netsim
// Instance's Allocate method lexically inside a for or range loop.
//
// The one sanctioned exception is the invariant cross-check: calls
// inside an `if invariant.Enabled { ... }` block compare incremental
// state against the full recomputation and stay allowed.
//
// AllocateCapacitated is a different method and is deliberately not
// flagged: the capacitated first-fit allocation has no incremental
// form (see internal/placement/placement.go).
var AnalyzerAllocLoop = &Analyzer{
	Name: "allocloop",
	Doc:  "placement solvers must not call netsim Allocate inside loops; use netsim.State deltas",
	Run:  runAllocLoop,
}

// isInstanceAllocate reports whether the call is <netsim Instance>.Allocate(...).
func isInstanceAllocate(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Allocate" {
		return false
	}
	t := p.typeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Instance" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/netsim")
}

// isInvariantEnabledCond reports whether the expression is the
// invariant package's Enabled flag.
func isInvariantEnabledCond(p *Package, cond ast.Expr) bool {
	sel, ok := cond.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Enabled" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.objectOf(id).(*types.PkgName)
	return ok && strings.HasSuffix(pn.Imported().Path(), "internal/invariant")
}

func runAllocLoop(p *Package) []Finding {
	if p.rel() != "internal/placement" {
		return nil
	}
	var out []Finding

	// visit walks root carrying two lexical flags: whether the node
	// sits inside a loop body, and whether an enclosing
	// `if invariant.Enabled` exempts it.
	var visit func(root ast.Node, inLoop, exempt bool)
	visit = func(root ast.Node, inLoop, exempt bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			switch v := n.(type) {
			case *ast.ForStmt:
				if v.Init != nil {
					visit(v.Init, inLoop, exempt)
				}
				if v.Cond != nil {
					visit(v.Cond, inLoop, exempt)
				}
				if v.Post != nil {
					visit(v.Post, inLoop, exempt)
				}
				visit(v.Body, true, exempt)
				return false
			case *ast.RangeStmt:
				visit(v.X, inLoop, exempt)
				visit(v.Body, true, exempt)
				return false
			case *ast.IfStmt:
				if isInvariantEnabledCond(p, v.Cond) {
					if v.Init != nil {
						visit(v.Init, inLoop, exempt)
					}
					visit(v.Body, inLoop, true)
					if v.Else != nil {
						visit(v.Else, inLoop, exempt)
					}
					return false
				}
			case *ast.CallExpr:
				if inLoop && !exempt && isInstanceAllocate(p, v) {
					out = append(out, p.finding("allocloop", v,
						"full Allocate inside a loop; drive the solver with netsim.State deltas (AddBox/RemoveBox) — or guard with invariant.Enabled if this is a cross-check"))
				}
			}
			return true
		})
	}

	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			visit(fd.Body, false, false)
		}
	}
	return out
}
