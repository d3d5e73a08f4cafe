package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerCtxFlow guards the cancellation contract of the unified
// solver architecture (DESIGN.md "Cancellation & anytime contract"):
// deadlines must flow from the caller to every solver loop, so nothing
// in the solve path may mint a fresh root context or hide a search
// behind a context-free signature.
//
// Three rules:
//
//  1. In tdmd/internal/placement, calls to context.Background() or
//     context.TODO() are flagged anywhere in library code: a solver
//     that conjures its own context silently detaches itself from the
//     caller's deadline.
//  2. In cmd/*serve packages, the same calls are flagged inside any
//     function that receives an *http.Request: handlers must derive
//     from r.Context() so a disconnecting client cancels its solve.
//  3. In tdmd/internal/placement, an exported function that returns a
//     placement.Result (directly or inside a wrapper struct)
//     must take a context.Context as its first parameter — those are
//     the solver entry points the contract is about.
var AnalyzerCtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "solver paths must thread the caller's context: no Background()/TODO() in placement or serve handlers; solver entry points take ctx first",
	Run:  runCtxFlow,
}

// isContextRootCall reports whether the call is context.Background()
// or context.TODO(), resolving the receiver to the real context
// package rather than trusting the identifier's spelling.
func isContextRootCall(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := p.objectOf(id).(*types.PkgName)
	if !ok || pn.Imported().Path() != "context" {
		return "", false
	}
	return "context." + sel.Sel.Name, true
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isHTTPRequestPtr reports whether t is *http.Request.
func isHTTPRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// isPlacementResult reports whether t is (or points to) the placement
// package's Result type.
func isPlacementResult(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Result" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/placement")
}

// carriesResult reports whether t is placement.Result or a named
// struct with a field (embedded or not) of that type.
func carriesResult(t types.Type) bool {
	if isPlacementResult(t) {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isPlacementResult(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// funcTakesRequest reports whether the declaration has an
// *http.Request parameter (the shape of every handler and helper on
// the request path).
func funcTakesRequest(p *Package, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if t := p.typeOf(field.Type); t != nil && isHTTPRequestPtr(t) {
			return true
		}
	}
	return false
}

// isServeCommand reports whether the package is part of the HTTP
// service (cmd/tdmdserve, internal/serve, and any future *serve
// package).
func (p *Package) isServeCommand() bool {
	return strings.HasSuffix(p.rel(), "serve")
}

func runCtxFlow(p *Package) []Finding {
	inPlacement := p.rel() == "internal/placement"
	inServe := p.isServeCommand()
	if !inPlacement && !inServe {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if inPlacement && fd.Recv == nil && fd.Name.IsExported() {
				out = append(out, checkEntryPoint(p, fd)...)
			}
			if fd.Body == nil {
				continue
			}
			flagRoots := inPlacement || (inServe && funcTakesRequest(p, fd))
			if !flagRoots {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, bad := isContextRootCall(p, call); bad {
					why := "solvers must run under the caller's context"
					if inServe {
						why = "handlers must derive from r.Context() so client disconnects cancel the solve"
					}
					out = append(out, p.finding("ctxflow", call,
						"%s mints a fresh root context; %s", name, why))
				}
				return true
			})
		}
	}
	return out
}

// checkEntryPoint flags an exported placement function that returns a
// Result-carrying value without taking a context first.
func checkEntryPoint(p *Package, fd *ast.FuncDecl) []Finding {
	if fd.Type.Results == nil {
		return nil
	}
	returnsResult := false
	for _, field := range fd.Type.Results.List {
		if t := p.typeOf(field.Type); t != nil && carriesResult(t) {
			returnsResult = true
			break
		}
	}
	if !returnsResult {
		return nil
	}
	params := fd.Type.Params.List
	if len(params) > 0 {
		if t := p.typeOf(params[0].Type); t != nil && isContextType(t) {
			return nil
		}
	}
	return []Finding{p.finding("ctxflow", fd.Name,
		"exported solver entry point %s returns a placement Result but its first parameter is not context.Context; cancellation cannot reach its loops", fd.Name.Name)}
}
