package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// In-memory fixtures: each analyzer test type-checks a tiny package
// against stub versions of the repository's model packages (and of
// the stdlib packages the analyzers special-case), so the tests run
// with no go toolchain invocation and no filesystem.

type srcPkg struct {
	path string
	src  string
}

// Stub model/stdlib packages. The analyzers identify types and
// functions by package path + name, so the stubs only need matching
// paths and signatures.
const (
	fakeGraph = `package graph

type NodeID int32

const Invalid NodeID = -1

type Path []NodeID
`
	fakeRand = `package rand

type Source interface{ Int63() int64 }

type Rand struct{}

func New(src Source) *Rand        { return &Rand{} }
func NewSource(seed int64) Source { return nil }
func Int() int                    { return 0 }
func Intn(n int) int              { return 0 }
func Float64() float64            { return 0 }
func Shuffle(n int, swap func(i, j int)) {}

func (r *Rand) Intn(n int) int   { return 0 }
func (r *Rand) Float64() float64 { return 0 }
`
	fakeErrors = `package errors

func New(text string) error { return nil }
`
	fakeFmt = `package fmt

func Println(args ...any) (int, error)               { return 0, nil }
func Printf(format string, args ...any) (int, error) { return 0, nil }
`
	fakeStrings = `package strings

type Builder struct{}

func (b *Builder) WriteString(s string) (int, error) { return 0, nil }
func (b *Builder) String() string                    { return "" }
`
	fakeExperiments = `package experiments

func Run() {}
`

	// Stubs for the interprocedural (module-analyzer) fixtures. The
	// stdlib-path stubs (sync, sort, context) are type-checked so the
	// fixtures compile but are NOT handed to the engine as units, so
	// the engine models them through its external tables — exactly as
	// in a real run, where only module packages are loaded.
	fakeContext = `package context

type Context interface {
	Done() <-chan struct{}
	Err() error
}

func Background() Context { return nil }
func TODO() Context       { return nil }
`
	fakeSync = `package sync

type WaitGroup struct{ n int }

func (wg *WaitGroup) Add(delta int) { wg.n += delta }
func (wg *WaitGroup) Done()         { wg.n-- }
func (wg *WaitGroup) Wait()         {}

type Once struct{ done bool }

func (o *Once) Do(f func()) { f() }

type Mutex struct{ state int }

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}

type RWMutex struct{ state int }

func (m *RWMutex) Lock()    {}
func (m *RWMutex) Unlock()  {}
func (m *RWMutex) RLock()   {}
func (m *RWMutex) RUnlock() {}
`
	fakeSort = `package sort

func Strings(x []string)                          {}
func Slice(x any, less func(i, j int) bool)       {}
func SliceStable(x any, less func(i, j int) bool) {}
`
	fakeNetsimModel = `package netsim

type Instance struct {
	Lambda float64
	Flows  []int
}

type Plan struct {
	Boxes []int
}
`
)

// mapImporter resolves fixture imports from already-checked packages.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("fixture: unknown import %q", path)
}

// typecheckFixture checks the packages in order and returns a lint
// Package for the last one (the unit under test).
func typecheckFixture(t *testing.T, pkgs ...srcPkg) *Package {
	t.Helper()
	fset := token.NewFileSet()
	imp := make(mapImporter)
	var last *Package
	for _, sp := range pkgs {
		file, err := parser.ParseFile(fset, sp.path+"/fixture.go", sp.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", sp.path, err)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(sp.path, fset, []*ast.File{file}, info)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", sp.path, err)
		}
		imp[sp.path] = tpkg
		last = &Package{
			Path:   sp.path,
			Module: "tdmd",
			Fset:   fset,
			Files:  []*ast.File{file},
			Pkg:    tpkg,
			Info:   info,
		}
	}
	return last
}

// runOn applies one analyzer to a fixture package.
func runOn(t *testing.T, a *Analyzer, pkgs ...srcPkg) []Finding {
	t.Helper()
	return a.Run(typecheckFixture(t, pkgs...))
}

// typecheckModule checks the packages in order and returns lint
// Packages for every module ("tdmd/...") package. Stdlib-path stubs
// are checked so imports resolve, but excluded from the returned set:
// the flow engine must treat them as externals, like a real load.
func typecheckModule(t *testing.T, pkgs ...srcPkg) []*Package {
	t.Helper()
	fset := token.NewFileSet()
	imp := make(mapImporter)
	var out []*Package
	for _, sp := range pkgs {
		file, err := parser.ParseFile(fset, sp.path+"/fixture.go", sp.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", sp.path, err)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(sp.path, fset, []*ast.File{file}, info)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", sp.path, err)
		}
		imp[sp.path] = tpkg
		if !strings.HasPrefix(sp.path, "tdmd") {
			continue
		}
		out = append(out, &Package{
			Path:   sp.path,
			Module: "tdmd",
			Fset:   fset,
			Files:  []*ast.File{file},
			Pkg:    tpkg,
			Info:   info,
		})
	}
	return out
}

// runModuleOn applies one module analyzer (graph included) to a
// fixture module.
func runModuleOn(t *testing.T, a *Analyzer, pkgs ...srcPkg) []Finding {
	t.Helper()
	return Run(typecheckModule(t, pkgs...), []*Analyzer{a})
}

// wantFindings asserts the number of findings and that each carries
// the analyzer's name.
func wantFindings(t *testing.T, a *Analyzer, got []Finding, want int) {
	t.Helper()
	if len(got) != want {
		t.Fatalf("%s: got %d findings, want %d:\n%v", a.Name, len(got), want, got)
	}
	for _, f := range got {
		if f.Analyzer != a.Name {
			t.Fatalf("%s: finding attributed to %q: %v", a.Name, f.Analyzer, f)
		}
		if f.Pos.Line == 0 {
			t.Fatalf("%s: finding without position: %v", a.Name, f)
		}
	}
}

// fakeObs stubs tdmd/internal/obs for fixtures that register metrics;
// only the constructor signatures matter.
const fakeObs = `package obs

type Counter struct{ v uint64 }

func (c *Counter) Add(n uint64) { c.v += n }

type Gauge struct{}
type Histogram struct{}
type CounterVec struct{}
type GaugeVec struct{}
type HistogramVec struct{}
type Registry struct{}

func NewCounter(name, help string) *Counter                            { return nil }
func NewGauge(name, help string) *Gauge                                { return nil }
func NewHistogram(name, help string, bounds []float64) *Histogram      { return nil }
func NewCounterVec(name, help string, labels ...string) *CounterVec    { return nil }
func NewGaugeVec(name, help string, labels ...string) *GaugeVec        { return nil }

func (r *Registry) NewCounter(name, help string) *Counter              { return nil }
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return nil
}
`
