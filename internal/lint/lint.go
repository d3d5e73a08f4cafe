// Package lint is the project-specific static-analysis suite behind
// cmd/tdmdlint. It implements, with the standard library only
// (go/parser + go/types — the module has no external dependencies and
// must stay that way), the code-level invariants this repository's
// correctness story rests on. Each analyzer stays only while some
// fault it names passes every other step of scripts/check.sh; the
// shape of that fault is pinned in TestSoleCatchMutants. Six are
// per-package rules:
//
//   - globalrand: library code must not use math/rand's global state,
//     so experiments stay reproducible from explicit seeds;
//   - droppederror: library code must not discard error returns;
//   - allocloop: placement solvers must not call the netsim Instance's
//     full Allocate inside loops — iteration runs on netsim.State
//     deltas (invariant cross-checks excepted);
//   - internalboundary: commands and examples consume the public tdmd
//     facade, not internal packages (small allowlist aside);
//   - todotracker: stray panic("TODO") markers and uppercase
//     "xxx"/"fixme" attention comments fail the build;
//   - hotalloc: inside `//tdmd:hot` regions (solver fast-path
//     functions and loops, see hot.go) no heap-allocating construct —
//     make/new, slice/map/&T{} literals, growing append, string
//     concatenation, interface boxing, closures, variadic argument
//     slices — and no integer-keyed map indexing.
//
// Seven analyzers are interprocedural, built on the fixed-point
// summary engine in internal/lint/flow, and see the whole package set
// at once:
//
//   - solverpurity: nothing reachable from a registered solver may
//     mutate the shared *netsim.Instance or package-level state
//     (sync/obs metric state excepted) — solvers must be pure
//     functions of (instance, options);
//   - detorder: map-iteration order must not reach a returned
//     placement.Result/netsim.Plan or a diagnostic/serialization sink
//     without an explicit sort or ordered tie-break in between;
//   - goleak: goroutines spawned in internal/placement,
//     internal/serve and cmd/tdmdserve must carry a completion signal (send, close,
//     WaitGroup.Done) that the spawning frame joins, including on the
//     cancellation branch;
//   - mapstate: map-keyed state on the simulation/solver structs must
//     not be read anywhere reachable from a `//tdmd:hot` region — IDs
//     are dense integers, so hot state belongs in flat slices;
//   - guardedby: a field whose accesses hold one mutex at a strict
//     majority of sites is guarded by it, and every access must hold
//     it (sync/atomic, obs-typed fields and constructor writes are
//     sanctioned escapes);
//   - lockorder: the module-wide lock-order graph must stay acyclic,
//     and no mutex may be acquired while already in the held set
//     (self-deadlock through a helper);
//   - holdblock: no channel operation, default-less select,
//     WaitGroup.Wait, solver entry, or blocking I/O while a mutex is
//     held.
//
// A third allocation-discipline layer — the compiler's own escape
// analysis and inlining decisions, diffed against a checked-in
// baseline — lives in internal/lint/escape and is wired into
// cmd/tdmdlint next to these analyzers.
//
// Analyzers operate on non-test files only: tests are deliberately
// free to use exact golden comparisons, fixed global randomness and
// internal packages.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tdmd/internal/lint/flow"
)

// Package is one parsed and type-checked package under analysis.
type Package struct {
	// Path is the full import path (e.g. "tdmd/internal/netsim").
	Path string
	// Module is the module path the package belongs to ("tdmd").
	Module string
	// Fset positions every file and type-checked object.
	Fset *token.FileSet
	// Files holds the parsed non-test compilation units.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
}

// rel returns the package path relative to the module root ("" for
// the facade package itself).
func (p *Package) rel() string {
	if p.Path == p.Module {
		return ""
	}
	return strings.TrimPrefix(p.Path, p.Module+"/")
}

// IsCommand reports whether the package lives under cmd/.
func (p *Package) IsCommand() bool { return strings.HasPrefix(p.rel(), "cmd/") }

// IsExample reports whether the package lives under examples/.
func (p *Package) IsExample() bool { return strings.HasPrefix(p.rel(), "examples/") }

// IsLibrary reports whether the package is part of the library proper:
// the public facade or an internal package, as opposed to a command or
// example binary.
func (p *Package) IsLibrary() bool { return !p.IsCommand() && !p.IsExample() }

// Finding is one analyzer hit.
type Finding struct {
	// Analyzer names the rule that fired.
	Analyzer string
	// Pos locates the offending syntax.
	Pos token.Position
	// Message explains the violation.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one independent rule. Per-package rules implement Run;
// interprocedural rules implement RunModule and see every loaded
// package plus the flow graph at once. Exactly one of the two is set.
type Analyzer struct {
	// Name is the rule's identifier, used in findings and -only.
	Name string
	// Doc is a one-line description for tdmdlint -list.
	Doc string
	// Run reports the rule's findings for one package.
	Run func(p *Package) []Finding
	// RunModule reports findings over the whole package set, with the
	// interprocedural summary graph.
	RunModule func(pkgs []*Package, g *flow.Graph) []Finding
}

// Analyzers returns every analyzer in the suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerGlobalRand,
		AnalyzerDroppedError,
		AnalyzerAllocLoop,
		AnalyzerInternalBoundary,
		AnalyzerTodoTracker,
		AnalyzerHotAlloc,
		AnalyzerSolverPurity,
		AnalyzerDetOrder,
		AnalyzerGoLeak,
		AnalyzerMapState,
		AnalyzerGuardedBy,
		AnalyzerLockOrder,
		AnalyzerHoldBlock,
	}
}

// Run applies the analyzers to every package and returns the combined
// findings ordered by file position. The interprocedural graph is
// built once, and only when a module analyzer is selected.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				out = append(out, a.Run(p)...)
			}
		}
	}
	var g *flow.Graph
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if g == nil {
			g = buildFlowGraph(pkgs)
		}
		out = append(out, a.RunModule(pkgs, g)...)
	}
	SortFindings(out)
	return out
}

// SortFindings orders findings by file, line, column, analyzer and
// message — the canonical, byte-stable reporting order.
func SortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// BuildGraph runs the interprocedural engine over the loaded packages
// and returns the converged summary graph. Run builds the same graph
// internally; tooling that needs the graph itself (the tdmdlint
// -lockgraph DOT dump, engine-level tests over InferredGuards) calls
// this directly.
func BuildGraph(pkgs []*Package) *flow.Graph { return buildFlowGraph(pkgs) }

// buildFlowGraph runs the interprocedural engine over the loaded
// packages.
func buildFlowGraph(pkgs []*Package) *flow.Graph {
	units := make([]*flow.Unit, 0, len(pkgs))
	for _, p := range pkgs {
		units = append(units, &flow.Unit{
			Path:  p.Path,
			Fset:  p.Fset,
			Files: p.Files,
			Info:  p.Info,
			Pkg:   p.Pkg,
		})
	}
	return flow.Analyze(units)
}

// finding builds a Finding at a node's position.
func (p *Package) finding(analyzer string, at ast.Node, format string, args ...any) Finding {
	return Finding{
		Analyzer: analyzer,
		Pos:      p.Fset.Position(at.Pos()),
		Message:  fmt.Sprintf(format, args...),
	}
}

// typeOf returns the recorded static type of an expression, or nil.
func (p *Package) typeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// objectOf resolves an identifier to its object via Uses then Defs.
func (p *Package) objectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}
