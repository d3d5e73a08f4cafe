package lint

import (
	"strings"
	"testing"
)

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// --- globalrand ---

func TestGlobalRandFlagsTopLevelCalls(t *testing.T) {
	a := analyzerByName(t, "globalrand")
	got := runOn(t, a,
		srcPkg{"math/rand", fakeRand},
		srcPkg{"tdmd/internal/foo", `package foo

import "math/rand"

func Pick(n int) int {
	rand.Shuffle(n, func(i, j int) {})
	return rand.Intn(n)
}
`})
	wantFindings(t, a, got, 2)
	if !strings.Contains(got[0].Message, "rand.Shuffle") {
		t.Errorf("message should name the callee: %v", got[0])
	}
}

func TestGlobalRandAllowsSeededGenerators(t *testing.T) {
	a := analyzerByName(t, "globalrand")
	got := runOn(t, a,
		srcPkg{"math/rand", fakeRand},
		srcPkg{"tdmd/internal/foo", `package foo

import "math/rand"

func Pick(seed int64, n int) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(n)
}
`})
	wantFindings(t, a, got, 0)
}

func TestGlobalRandExemptsCommands(t *testing.T) {
	a := analyzerByName(t, "globalrand")
	got := runOn(t, a,
		srcPkg{"math/rand", fakeRand},
		srcPkg{"tdmd/cmd/foo", `package main

import "math/rand"

func main() { _ = rand.Int() }
`})
	wantFindings(t, a, got, 0)
}

// --- droppederror ---

func TestDroppedErrorFlagsDiscards(t *testing.T) {
	a := analyzerByName(t, "droppederror")
	got := runOn(t, a,
		srcPkg{"errors", fakeErrors},
		srcPkg{"tdmd/internal/foo", `package foo

import "errors"

func mayFail() error { return errors.New("boom") }

func pair() (int, error) { return 0, errors.New("boom") }

func Bad() int {
	mayFail()
	_ = mayFail()
	defer mayFail()
	v, _ := pair()
	return v
}
`})
	wantFindings(t, a, got, 4)
}

func TestDroppedErrorAllowsHandledAndAllowlisted(t *testing.T) {
	a := analyzerByName(t, "droppederror")
	got := runOn(t, a,
		srcPkg{"errors", fakeErrors},
		srcPkg{"fmt", fakeFmt},
		srcPkg{"strings", fakeStrings},
		srcPkg{"tdmd/internal/foo", `package foo

import (
	"errors"
	"fmt"
	"strings"
)

func mayFail() error { return errors.New("boom") }

func Good() (string, error) {
	if err := mayFail(); err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("ok")
	fmt.Println("progress")
	return sb.String(), nil
}
`})
	wantFindings(t, a, got, 0)
}

func TestDroppedErrorExemptsMainPackages(t *testing.T) {
	a := analyzerByName(t, "droppederror")
	got := runOn(t, a,
		srcPkg{"errors", fakeErrors},
		srcPkg{"tdmd/cmd/foo", `package main

import "errors"

func mayFail() error { return errors.New("boom") }

func main() { mayFail() }
`})
	wantFindings(t, a, got, 0)
}

// --- internalboundary ---

func TestBoundaryFlagsInternalImportsFromCommands(t *testing.T) {
	a := analyzerByName(t, "internalboundary")
	got := runOn(t, a,
		srcPkg{"tdmd/internal/graph", fakeGraph},
		srcPkg{"tdmd/cmd/foo", `package main

import "tdmd/internal/graph"

func main() { _ = graph.Invalid }
`})
	wantFindings(t, a, got, 1)
	if !strings.Contains(got[0].Message, "tdmd/internal/graph") {
		t.Errorf("message should name the import: %v", got[0])
	}
}

func TestBoundaryFlagsInternalImportsFromExamples(t *testing.T) {
	a := analyzerByName(t, "internalboundary")
	got := runOn(t, a,
		srcPkg{"tdmd/internal/graph", fakeGraph},
		srcPkg{"tdmd/examples/foo", `package main

import "tdmd/internal/graph"

func main() { _ = graph.Invalid }
`})
	wantFindings(t, a, got, 1)
}

func TestBoundaryHonorsAllowlistAndLibraries(t *testing.T) {
	a := analyzerByName(t, "internalboundary")
	// cmd/figures is allowlisted for internal/experiments.
	got := runOn(t, a,
		srcPkg{"tdmd/internal/experiments", fakeExperiments},
		srcPkg{"tdmd/cmd/figures", `package main

import "tdmd/internal/experiments"

func main() { experiments.Run() }
`})
	wantFindings(t, a, got, 0)

	// Library packages may import internals freely.
	got = runOn(t, a,
		srcPkg{"tdmd/internal/graph", fakeGraph},
		srcPkg{"tdmd/internal/foo", `package foo

import "tdmd/internal/graph"

var Start = graph.Invalid
`})
	wantFindings(t, a, got, 0)
}

// --- todotracker ---

func TestTodoTrackerFlagsMarkersAndPanics(t *testing.T) {
	a := analyzerByName(t, "todotracker")
	// The markers are assembled at runtime so this test file itself
	// stays clean under the analyzer's comment scan.
	src := `package foo

// ` + "XX" + `X: left over from the prototype
func Old() {}

func Unfinished() { panic("TODO: implement") }
`
	got := runOn(t, a, srcPkg{"tdmd/internal/foo", src})
	wantFindings(t, a, got, 2)
}

func TestTodoTrackerAllowsTrackedTodosAndRealPanics(t *testing.T) {
	a := analyzerByName(t, "todotracker")
	got := runOn(t, a, srcPkg{"tdmd/internal/foo", `package foo

// TODO(roadmap): extend to weighted graphs.
func Planned() {}

func Checked(n int) {
	if n < 0 {
		panic("foo: negative size")
	}
}
`})
	wantFindings(t, a, got, 0)
}

// --- Run ordering / classification ---

func TestRunSortsFindings(t *testing.T) {
	p := typecheckFixture(t, srcPkg{"tdmd/internal/foo", `package foo

func B() { panic("` + "TO" + `DO: b") }

func A() { panic("` + "TO" + `DO: a") }
`})
	got := Run([]*Package{p}, Analyzers())
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(got), got)
	}
	if got[0].Pos.Line >= got[1].Pos.Line {
		t.Errorf("findings not sorted by line: %v", got)
	}
}

func TestPackageClassification(t *testing.T) {
	cases := []struct {
		path                      string
		command, example, library bool
	}{
		{"tdmd", false, false, true},
		{"tdmd/internal/graph", false, false, true},
		{"tdmd/cmd/tdmdlint", true, false, false},
		{"tdmd/examples/wanoptimizer", false, true, false},
	}
	for _, c := range cases {
		p := &Package{Path: c.path, Module: "tdmd"}
		if got := p.IsCommand(); got != c.command {
			t.Errorf("%s: IsCommand = %v, want %v", c.path, got, c.command)
		}
		if got := p.IsExample(); got != c.example {
			t.Errorf("%s: IsExample = %v, want %v", c.path, got, c.example)
		}
		if got := p.IsLibrary(); got != c.library {
			t.Errorf("%s: IsLibrary = %v, want %v", c.path, got, c.library)
		}
	}
}
