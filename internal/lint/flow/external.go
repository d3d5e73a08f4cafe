package flow

import "go/types"

// The external model: everything the engine assumes about functions
// it has no source for. The module depends on the standard library
// only, so this table is the complete external world. The default for
// an unmodeled external is: no writes to argument memory, no alias
// from arguments to results, order taint passed through from
// arguments to results (fmt.Sprintf of a map key is still map-
// ordered), and no goroutine facts.
//
// External IDs are "pkgpath.Name" for functions and
// "[*]pkgpath.Type.Name" for methods (pointer receivers keep the
// star so sink lists can be written precisely; lookups also try the
// de-starred form).

// sortExternals both write their first argument and establish a
// deterministic order on it: an object ever passed to one of these is
// considered ordered from then on.
var sortExternals = map[string]bool{
	"sort.Slice":            true,
	"sort.SliceStable":      true,
	"sort.Sort":             true,
	"sort.Stable":           true,
	"sort.Ints":             true,
	"sort.Float64s":         true,
	"sort.Strings":          true,
	"slices.Sort":           true,
	"slices.SortFunc":       true,
	"slices.SortStableFunc": true,
}

// writeArg0Externals write the pointer-reachable memory of their
// first argument (sorters reorder in place, copy fills dst).
var writeArg0Externals = map[string]bool{
	"copy": true, // handled as a builtin, listed for documentation
}

// externalID renders the canonical ID for an external function
// object.
func externalID(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		star := ""
		if _, isPtr := rt.(*types.Pointer); isPtr {
			star = "*"
		}
		if p, name, ok := namedTypeOf(rt); ok {
			return star + p + "." + name + "." + fn.Name()
		}
		// Interface receivers have no named concrete type here; fall
		// back to the interface's own name via the func's package.
		return star + pkg + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// isWaitGroupMethod matches (*sync.WaitGroup).Name.
func isWaitGroupMethod(fn *types.Func, name string) bool {
	if fn.Name() != name {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	p, n, ok := namedTypeOf(sig.Recv().Type())
	return ok && p == "sync" && n == "WaitGroup"
}

// isOnceDo matches (*sync.Once).Do.
func isOnceDo(fn *types.Func) bool {
	if fn.Name() != "Do" {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	p, n, ok := namedTypeOf(sig.Recv().Type())
	return ok && p == "sync" && n == "Once"
}
