package lint

import (
	"go/token"
	"go/types"
	"strings"

	"tdmd/internal/lint/flow"
)

// AnalyzerSolverPurity enforces the solver purity contract: nothing
// reachable from a registered solver's entry point may mutate the
// shared *netsim.Instance or package-level mutable state. The
// incremental netsim.State engine, the golden/metamorphic suites and
// the service's concurrent solves on one shared instance all assume
// solvers are pure functions of (instance, options).
//
// Entry points are the solver function literals registered in
// internal/placement (any function-typed value whose signature takes
// a context.Context first and a *netsim.Instance) and any method
// named Solve taking a *netsim.Instance. Writes are interprocedural:
// a mutation three calls and two packages away is attributed to every
// solver that can reach it.
//
// Exempt package-level state: variables whose type lives in sync,
// sync/atomic or internal/obs — locks and metrics are the sanctioned
// forms of shared mutation (obs counters are atomic and never feed
// back into placement decisions).
var AnalyzerSolverPurity = &Analyzer{
	Name:      "solverpurity",
	Doc:       "solver entry points must not transitively mutate the *netsim.Instance or package-level state",
	RunModule: runSolverPurity,
}

func runSolverPurity(pkgs []*Package, g *flow.Graph) []Finding {
	type hit struct {
		pos     token.Pos
		message string
	}
	seen := map[hit]bool{}
	var out []Finding
	fset := g.Fset()
	for _, n := range g.Nodes() {
		inst := solverEntryInstanceParam(n)
		if inst < 0 {
			continue
		}
		entry := solverEntryName(n)
		for _, site := range n.Sum.ParamWrites[inst] {
			h := hit{site.Pos, site.Desc}
			if seen[h] {
				continue
			}
			seen[h] = true
			out = append(out, Finding{
				Analyzer: "solverpurity",
				Pos:      fset.Position(site.Pos),
				Message: "solver " + entry + " reaches a write to its *netsim.Instance: " +
					site.Desc + " — solvers must treat the instance as read-only (use netsim.State)",
			})
		}
		for ref, sites := range n.Sum.GlobalWrites {
			if exemptGlobal(pkgs, ref) {
				continue
			}
			for _, site := range sites {
				h := hit{site.Pos, ref}
				if seen[h] {
					continue
				}
				seen[h] = true
				out = append(out, Finding{
					Analyzer: "solverpurity",
					Pos:      fset.Position(site.Pos),
					Message: "solver " + entry + " reaches a write to package-level state " + ref +
						": " + site.Desc + " — solvers must be deterministic pure functions of (instance, options)",
				})
			}
		}
	}
	return out
}

// solverEntryInstanceParam reports the receiver-first index of the
// *netsim.Instance parameter if n is a solver entry point, else -1.
// Entry points: function literals or declarations in an
// internal/placement package whose signature is context-first with an
// instance parameter (the registered solver bodies and their
// immediate helpers), plus any method named Solve taking an instance
// anywhere in the module.
func solverEntryInstanceParam(n *flow.Node) int {
	sig := n.Sig
	inst := -1
	offset := 0
	if sig.Recv() != nil {
		offset = 1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isInstancePtr(sig.Params().At(i).Type()) {
			inst = offset + i
			break
		}
	}
	if inst < 0 {
		return -1
	}
	if n.Decl != nil && n.Decl.Recv != nil && n.Decl.Name.Name == "Solve" {
		return inst
	}
	if !strings.HasSuffix(n.Unit.Path, "internal/placement") {
		return -1
	}
	if sig.Params().Len() < 2 || !isContextParam(sig.Params().At(0).Type()) {
		return -1
	}
	return inst
}

// solverEntryName renders a stable human name for an entry node.
func solverEntryName(n *flow.Node) string {
	if n.Decl != nil {
		if n.Decl.Recv != nil {
			return n.Key[strings.LastIndex(n.Key, "/")+1:]
		}
		return n.Decl.Name.Name
	}
	return n.Key[strings.LastIndex(n.Key, "/")+1:]
}

func isInstancePtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Instance" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/netsim")
}

func isContextParam(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// exemptGlobal reports whether the package-level variable named by
// ref ("pkgpath.Name") is sanctioned mutable state: sync primitives
// and obs metric instruments. Variables in packages outside the
// loaded set cannot be classified and are skipped (partial loads must
// not produce spurious findings).
func exemptGlobal(pkgs []*Package, ref string) bool {
	dot := strings.LastIndex(ref, ".")
	if dot < 0 {
		return true
	}
	pkgPath, name := ref[:dot], ref[dot+1:]
	for _, p := range pkgs {
		if p.Path != pkgPath {
			continue
		}
		obj := p.Pkg.Scope().Lookup(name)
		if obj == nil {
			return true
		}
		return exemptStateType(obj.Type())
	}
	return true
}

// exemptStateType reports whether t (pointer-stripped) is declared in
// sync, sync/atomic or an internal/obs package.
func exemptStateType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "sync" || path == "sync/atomic" ||
		strings.HasSuffix(path, "internal/obs")
}
