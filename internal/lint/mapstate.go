package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"tdmd/internal/lint/flow"
)

// AnalyzerMapState is the interprocedural companion of hotalloc: it
// flags reads of map-typed fields on the simulation/solver state
// structs (named types defined in internal/netsim or
// internal/placement) anywhere reachable from a `//tdmd:hot` region,
// not just lexically inside one. Vertex and flow IDs are dense
// integers, so state consulted per iteration belongs in flat
// int-indexed slices (netsim.State and netsim.Plan's bitset hold no
// maps at all); a map lookup three calls away still costs a hash and a
// bucket probe per visit.
//
// Reachability: starting from hot-marked functions and the static
// callees of hot-marked loops, the closure follows declared-function
// calls across packages via the flow graph's canonical keys. Calls
// through function values and interface methods are not chased, and
// maps copied into locals are not tracked — the same precision model
// as internal/lint/flow. Invariant cross-check blocks and cold exits
// are exempt everywhere (hot.go).
//
// Writes (m[k] = v, delete) are exempt: a state map, if one is ever
// kept, would be mutated once per accepted move — reads are what
// iterate.
var AnalyzerMapState = &Analyzer{
	Name:      "mapstate",
	Doc:       "no map-typed state reads reachable from //tdmd:hot regions",
	RunModule: runMapState,
}

func runMapState(pkgs []*Package, g *flow.Graph) []Finding {
	hot := make(map[*flow.Node]string) // node -> the root region it is hot from
	var queue []*flow.Node
	mark := func(n *flow.Node, root string) {
		if n == nil {
			return
		}
		if _, ok := hot[n]; ok {
			return
		}
		hot[n] = root
		queue = append(queue, n)
	}

	type loopRegion struct {
		unit *flow.Unit
		stmt ast.Stmt
		root string
	}
	var loops []loopRegion

	// Roots: hot-marked function declarations become hot nodes; the
	// static callees of hot-marked loops become hot with the loop as
	// their root (the enclosing function itself stays cold).
	seenUnit := make(map[*flow.Unit]bool)
	for _, n := range g.Nodes() {
		u := n.Unit
		if u == nil || seenUnit[u] {
			continue
		}
		seenUnit[u] = true
		for _, file := range u.Files {
			marks := hotMarksOf(u.Fset, file)
			if !marks.anyHot() {
				continue
			}
			for fd := range marks.funcs {
				fn, _ := u.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := g.FuncNode(fn)
				if node != nil {
					mark(node, "//tdmd:hot func "+node.Key)
				}
			}
			for stmt := range marks.loops {
				root := "//tdmd:hot loop at " + u.Fset.Position(stmt.Pos()).String()
				loops = append(loops, loopRegion{unit: u, stmt: stmt, root: root})
				staticCallees(g, u, stmt, func(callee *flow.Node) {
					mark(callee, root)
				})
			}
		}
	}

	// Fixed point: everything a hot node statically calls is hot.
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		body := nodeBody(n)
		if body == nil {
			continue
		}
		root := hot[n]
		staticCallees(g, n.Unit, body, func(callee *flow.Node) {
			mark(callee, root)
		})
	}

	// Detection: map-typed state-field reads inside hot node bodies and
	// lexically inside hot loops.
	type dedupKey struct {
		pos token.Pos
		msg string
	}
	seen := make(map[dedupKey]bool)
	var out []Finding
	report := func(u *flow.Unit, at ast.Node, desc, root string) {
		msg := "read of map-typed state field " + desc +
			" is reachable from a hot region (" + root +
			"); IDs are dense — mirror it in a flat int-indexed slice"
		k := dedupKey{at.Pos(), msg}
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, Finding{
			Analyzer: "mapstate",
			Pos:      u.Fset.Position(at.Pos()),
			Message:  msg,
		})
	}
	for n, root := range hot {
		body := nodeBody(n)
		if body == nil {
			continue
		}
		u, r := n.Unit, root
		stateMapReads(u, body, func(at ast.Node, desc string) { report(u, at, desc, r) })
	}
	for _, lr := range loops {
		stateMapReads(lr.unit, lr.stmt, func(at ast.Node, desc string) { report(lr.unit, at, desc, lr.root) })
	}
	return out
}

// nodeBody is the syntactic body of a declared function or literal
// node. A literal node's body is also nested inside its encloser's
// declaration, so callers walking both see literal code twice; the
// dedup key absorbs that.
func nodeBody(n *flow.Node) ast.Node {
	switch {
	case n.Decl != nil && n.Decl.Body != nil:
		return n.Decl
	case n.Lit != nil:
		return n.Lit.Body
	}
	return nil
}

// staticCallees walks a region (with the hot-region exemptions) and
// reports the flow-graph node of every statically resolvable call
// target: declared functions and methods via their canonical key, and
// function literals appearing in the region.
func staticCallees(g *flow.Graph, u *flow.Unit, region ast.Node, visit func(*flow.Node)) {
	hotWalk(u.Info, region, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			var id *ast.Ident
			switch fun := ast.Unparen(v.Fun).(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			}
			if id == nil {
				return true
			}
			if fn, ok := u.Info.Uses[id].(*types.Func); ok {
				if node := g.FuncNode(fn); node != nil {
					visit(node)
				}
			}
		case *ast.FuncLit:
			if node := g.LitNode(v); node != nil {
				visit(node)
			}
		}
		return true
	})
}

// stateMapReads walks a region and reports every read of a map-typed
// field whose owner is a named type from internal/netsim or
// internal/placement. Plain stores (m[k] = v) and deletes are writes,
// not reads; compound assignment and ++/-- read before writing and
// count. Ranging over such a field is the canonical finding.
func stateMapReads(u *flow.Unit, region ast.Node, report func(at ast.Node, desc string)) {
	// First pass: index expressions that are pure store destinations.
	stores := make(map[*ast.IndexExpr]bool)
	ast.Inspect(region, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
			return true
		}
		for _, lhs := range as.Lhs {
			if ie, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				stores[ie] = true
			}
		}
		return true
	})
	hotWalk(u.Info, region, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.IndexExpr:
			if stores[v] {
				return true // still descend: the key expression may read
			}
			if desc, ok := stateMapField(u, v.X); ok {
				report(v, desc)
			}
		case *ast.RangeStmt:
			if desc, ok := stateMapField(u, v.X); ok {
				report(v.X, desc)
			}
		}
		return true
	})
}

// stateMapField reports whether e selects a map-typed field owned by a
// named type defined in internal/netsim or internal/placement, and if
// so describes it as "Type.field".
func stateMapField(u *flow.Unit, e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s, ok := u.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	field := s.Obj()
	if _, isMap := field.Type().Underlying().(*types.Map); !isMap {
		return "", false
	}
	recv := s.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	path := named.Obj().Pkg().Path()
	if !pkgPathHasSuffix(path, "internal/netsim") && !pkgPathHasSuffix(path, "internal/placement") {
		return "", false
	}
	return named.Obj().Name() + "." + field.Name(), true
}
