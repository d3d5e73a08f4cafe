package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"

	"tdmd/internal/lint/flow"
)

// AnalyzerDetOrder enforces deterministic ordering: a value whose
// content depends on Go's randomized map-iteration order must not
// reach a placement.Result/netsim.Plan return or a diagnostic/
// serialization sink without passing through an explicit sort (or an
// order-insensitive accumulation) first. The golden tests,
// metamorphic suites and the incremental-vs-full bit-identity checks
// all assume two runs of a solver produce byte-identical output.
//
// The taint is interprocedural (internal/lint/flow): a map range in a
// helper two packages away taints the caller's return value. The
// engine drops taint at sort.* calls, map inserts and commutative
// integer accumulations; everything else carries it.
var AnalyzerDetOrder = &Analyzer{
	Name:      "detorder",
	Doc:       "map-iteration order must not reach Result/Plan returns or diagnostic/serialized output unsorted",
	RunModule: runDetOrder,
}

// detOrderSinks are external callees whose arguments become
// user-visible output: diagnostics and serialization.
var detOrderSinks = map[string]bool{
	"fmt.Print":    true,
	"fmt.Printf":   true,
	"fmt.Println":  true,
	"fmt.Fprint":   true,
	"fmt.Fprintf":  true,
	"fmt.Fprintln": true,
	"fmt.Errorf":   true,

	"log.Print":   true,
	"log.Printf":  true,
	"log.Println": true,
	"log.Fatal":   true,
	"log.Fatalf":  true,

	"*log.Logger.Print":   true,
	"*log.Logger.Printf":  true,
	"*log.Logger.Println": true,

	"log/slog.Info":  true,
	"log/slog.Warn":  true,
	"log/slog.Error": true,
	"log/slog.Debug": true,

	"*log/slog.Logger.Info":  true,
	"*log/slog.Logger.Warn":  true,
	"*log/slog.Logger.Error": true,
	"*log/slog.Logger.Debug": true,

	"encoding/json.Marshal":         true,
	"encoding/json.MarshalIndent":   true,
	"*encoding/json.Encoder.Encode": true,
	"encoding/gob.NewEncoder":       true,
	"*encoding/gob.Encoder.Encode":  true,
	"encoding/csv.NewWriter":        true,
	"*encoding/csv.Writer.Write":    true,
}

func runDetOrder(pkgs []*Package, g *flow.Graph) []Finding {
	var out []Finding
	fset := g.Fset()
	for _, n := range g.Nodes() {
		for _, use := range n.UnorderedUses {
			switch use.Kind {
			case flow.UseReturn:
				t := use.Type
				if t == nil && use.Result < n.Sig.Results().Len() {
					t = n.Sig.Results().At(use.Result).Type()
				}
				if !isOrderSensitiveResult(t) {
					continue
				}
				out = append(out, Finding{
					Analyzer: "detorder",
					Pos:      fset.Position(use.Pos),
					Message: "map-iteration order (range at " + shortPos(fset, use.Origin.Pos) +
						") reaches a returned " + typeLabel(t) +
						" without an ordering step — sort or use an ordered tie-break first",
				})
			case flow.UseCallArg:
				if !detOrderSinks[use.CalleeID] {
					continue
				}
				out = append(out, Finding{
					Analyzer: "detorder",
					Pos:      fset.Position(use.Pos),
					Message: "map-iteration order (range at " + shortPos(fset, use.Origin.Pos) +
						") reaches " + use.CalleeID +
						" — output would differ between runs; sort before emitting",
				})
			}
		}
	}
	return out
}

// isOrderSensitiveResult reports whether t is one of the types whose
// content order the test suites pin: placement.Result, netsim.Plan,
// or pointers/slices of them.
func isOrderSensitiveResult(t types.Type) bool {
	switch v := t.(type) {
	case nil:
		return false
	case *types.Pointer:
		return isOrderSensitiveResult(v.Elem())
	case *types.Slice:
		return isOrderSensitiveResult(v.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	switch obj.Name() {
	case "Result":
		return strings.HasSuffix(path, "internal/placement")
	case "Plan":
		return strings.HasSuffix(path, "internal/netsim")
	}
	return false
}

func typeLabel(t types.Type) string {
	if t == nil {
		return "value"
	}
	return t.String()
}

// shortPos renders "file.go:line" with the bare file name: findings'
// messages must be machine-stable across checkouts, so the sorted
// output stays byte-identical.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
