package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerHotAlloc enforces allocation discipline on the solver fast
// path: inside a `//tdmd:hot` region (function or loop, see hot.go)
// any construct the compiler may turn into a heap allocation — or that
// grows amortized, like un-preallocated append — is a finding:
//
//   - make and new calls;
//   - slice and map composite literals, and &T{...};
//   - append whose destination is neither a caller-provided buffer
//     (parameter-rooted) nor preallocated with make(len[,cap]) in the
//     same function;
//   - string concatenation;
//   - implicit interface conversions at call boundaries (boxing) and
//     explicit conversions to interface types;
//   - function literals (closure allocation);
//   - calls to variadic functions that build an argument slice
//     (pass-through f(xs...) is free);
//   - integer-keyed map indexing — vertex and flow IDs are dense, so
//     a flat slice is always available (the mapstate analyzer chases
//     the same pattern interprocedurally).
//
// Invariant cross-check blocks and cold exits are exempt (hot.go).
// Every finding fails the gate; there is no suppression list.
var AnalyzerHotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no heap-allocating constructs inside //tdmd:hot regions",
	Run:  runHotAlloc,
}

func runHotAlloc(p *Package) []Finding {
	type dedupKey struct {
		pos token.Pos
		msg string
	}
	seen := make(map[dedupKey]bool)
	var out []Finding
	report := func(at ast.Node, format string, args ...any) {
		f := p.finding("hotalloc", at, format, args...)
		k := dedupKey{at.Pos(), f.Message}
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, f)
	}

	for _, file := range p.Files {
		marks := hotMarksOf(p.Fset, file)
		if !marks.anyHot() {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if marks.funcs[fd] {
				p.checkHotRegion(fd, fd, report)
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if stmt, ok := n.(ast.Stmt); ok && marks.loops[stmt] {
					p.checkHotRegion(stmt, fd, report)
					return false // region walk covers nested marked loops
				}
				return true
			})
		}
	}
	return out
}

// checkHotRegion applies the allocation rules to one hot region inside
// the declared function fn (used to resolve append destinations).
func (p *Package) checkHotRegion(region ast.Node, fn *ast.FuncDecl, report func(ast.Node, string, ...any)) {
	hotWalk(p.Info, region, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			p.checkHotCall(v, fn, report)
		case *ast.CompositeLit:
			switch p.typeOf(v).Underlying().(type) {
			case *types.Slice:
				report(v, "slice literal allocates in a hot region; hoist it or reuse a buffer")
			case *types.Map:
				report(v, "map literal allocates in a hot region; hoist it out")
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if _, ok := v.X.(*ast.CompositeLit); ok {
					report(v, "&composite literal escapes to the heap in a hot region; reuse a value instead")
				}
			}
		case *ast.FuncLit:
			report(v, "function literal allocates a closure per evaluation in a hot region; hoist it out of the hot path")
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isStringType(p.typeOf(v)) {
				report(v, "string concatenation allocates in a hot region; build strings outside the hot path")
			}
		case *ast.AssignStmt:
			if v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 && isStringType(p.typeOf(v.Lhs[0])) {
				report(v, "string concatenation allocates in a hot region; build strings outside the hot path")
			}
		case *ast.IndexExpr:
			if m, ok := typeUnderlying(p.typeOf(v.X)).(*types.Map); ok && isIntegerType(m.Key()) {
				report(v, "integer-keyed map index in a hot region; IDs are dense — use a flat int-indexed slice")
			}
		}
		return true
	})
}

// checkHotCall applies the call-shaped rules: builtins, conversions,
// boxing at parameter boundaries, and variadic argument slices.
func (p *Package) checkHotCall(call *ast.CallExpr, fn *ast.FuncDecl, report func(ast.Node, string, ...any)) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.objectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				report(call, "make allocates in a hot region; preallocate outside the region or reuse a buffer")
			case "new":
				report(call, "new allocates in a hot region; reuse a value outside the region")
			case "append":
				if len(call.Args) > 0 && !p.appendDestPreallocated(call.Args[0], fn) {
					report(call, "append without a preallocated destination grows in a hot region; size the buffer with make(len, cap) or take a caller-provided buffer")
				}
			}
			return
		}
	}
	// Conversions: T(x) with T an interface type boxes x.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && !isInterfaceOrNil(p, call.Args[0]) {
			report(call, "conversion to an interface type boxes its operand in a hot region")
		}
		return
	}
	sig, ok := typeUnderlying(p.typeOf(call.Fun)).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if isInterfaceOrNil(p, arg) {
			continue
		}
		report(arg, "argument is boxed into an interface parameter in a hot region; keep hot-path signatures concrete")
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		report(call, "variadic call allocates its argument slice in a hot region; use a fixed-arity helper")
	}
}

// appendDestPreallocated reports whether the destination of an append
// is a caller-provided buffer (rooted at a parameter or receiver) or
// was created in fn by make with an explicit length/capacity. Roots
// are chased through parentheses, slice expressions (buf[:0]) and
// single-variable assignments, with a visited set against cycles
// (x = append(x, ...)).
func (p *Package) appendDestPreallocated(dest ast.Expr, fn *ast.FuncDecl) bool {
	params := make(map[types.Object]bool)
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			for _, name := range f.Names {
				params[p.Info.Defs[name]] = true
			}
		}
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			for _, name := range f.Names {
				params[p.Info.Defs[name]] = true
			}
		}
	}

	visited := make(map[types.Object]bool)
	var exprOK func(e ast.Expr) bool
	var objOK func(obj types.Object) bool

	exprOK = func(e ast.Expr) bool {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return objOK(p.objectOf(v))
		case *ast.SliceExpr:
			return exprOK(v.X)
		case *ast.SelectorExpr:
			// Fields of a parameter-rooted value (e.g. a scratch struct
			// the caller owns) count as caller-provided.
			return exprOK(v.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
				if _, isBuiltin := p.objectOf(id).(*types.Builtin); isBuiltin && id.Name == "make" {
					return len(v.Args) >= 2 // make(T, len[, cap])
				}
			}
			return false
		}
		return false
	}
	objOK = func(obj types.Object) bool {
		if obj == nil || visited[obj] {
			return false
		}
		if params[obj] {
			return true
		}
		visited[obj] = true
		// Any assignment in fn that establishes a preallocated value for
		// obj qualifies it.
		ok := false
		ast.Inspect(fn, func(n ast.Node) bool {
			if ok {
				return false
			}
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					id, isIdent := lhs.(*ast.Ident)
					if !isIdent || p.objectOf(id) != obj || i >= len(st.Rhs) {
						continue
					}
					if len(st.Lhs) == len(st.Rhs) && exprOK(st.Rhs[i]) {
						ok = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range st.Names {
					if p.Info.Defs[name] != obj || i >= len(st.Values) {
						continue
					}
					if len(st.Names) == len(st.Values) && exprOK(st.Values[i]) {
						ok = true
					}
				}
			}
			return true
		})
		return ok
	}
	return exprOK(dest)
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := typeUnderlying(t).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isIntegerType reports whether t's underlying type is an integer.
func isIntegerType(t types.Type) bool {
	b, ok := typeUnderlying(t).(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isInterfaceOrNil reports whether an argument is already an interface
// value or the untyped nil (neither boxes).
func isInterfaceOrNil(p *Package, e ast.Expr) bool {
	t := p.typeOf(e)
	if t == nil {
		return true // be lenient on exotic syntax
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return true
	}
	return types.IsInterface(t)
}

// typeUnderlying is Underlying that tolerates nil.
func typeUnderlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}
