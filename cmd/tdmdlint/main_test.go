package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tdmd/internal/lint"
)

func TestListFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errOut.String())
	}
	for _, name := range []string{
		"globalrand", "droppederror",
		"internalboundary", "todotracker",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-only", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-only nope) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr should mention the unknown analyzer: %s", errOut.String())
	}
}

func TestSelectAnalyzers(t *testing.T) {
	all := lint.Analyzers()
	var errOut strings.Builder

	if got, ok := selectAnalyzers(all, "", &errOut); !ok || len(got) != len(all) {
		t.Fatalf("no -only selected %d of %d", len(got), len(all))
	}
	got, ok := selectAnalyzers(all, "droppederror, goleak", &errOut)
	if !ok || len(got) != 2 || got[0].Name != "droppederror" || got[1].Name != "goleak" {
		t.Fatalf("-only droppederror,goleak selected %v", names(got))
	}
	if _, ok := selectAnalyzers(all, "droppederror,nope", &errOut); ok {
		t.Fatal("-only with an unknown name accepted")
	}
}

func names(as []*lint.Analyzer) []string {
	out := make([]string, 0, len(as))
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}

func TestBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("run(bad flag) = %d, want 2", code)
	}
}

// TestSelfLint runs the full suite over this command's own package
// (cwd during tests is cmd/tdmdlint), which must be clean.
func TestSelfLint(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	var out, errOut strings.Builder
	if code := run([]string{"."}, &out, &errOut); code != 0 {
		t.Fatalf("run(.) = %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}

func TestRelPath(t *testing.T) {
	if got := relPath("/a/b", "/a/b/c/d.go"); got != "c/d.go" {
		t.Errorf("relPath inside dir = %q, want c/d.go", got)
	}
	if got := relPath("/a/b", "/elsewhere/d.go"); got != "/elsewhere/d.go" {
		t.Errorf("relPath outside dir = %q, want absolute unchanged", got)
	}
}

func TestJSONOutputDeterministicAndRoundTrips(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	var out1, out2, errOut strings.Builder
	if code := run([]string{"-json", "."}, &out1, &errOut); code != 0 {
		t.Fatalf("run(-json .) = %d, stderr: %s", code, errOut.String())
	}
	if code := run([]string{"-json", "."}, &out2, &errOut); code != 0 {
		t.Fatalf("second run(-json .) = %d, stderr: %s", code, errOut.String())
	}
	if out1.String() != out2.String() {
		t.Fatalf("-json output not byte-identical across runs:\n%s\n---\n%s", out1.String(), out2.String())
	}

	// The output decodes back into its report type, and an empty run
	// still carries the findings array.
	if !strings.Contains(out1.String(), `"findings"`) {
		t.Fatalf("-json output missing findings array:\n%s", out1.String())
	}
	dec := json.NewDecoder(strings.NewReader(out1.String()))
	dec.DisallowUnknownFields()
	var rep report
	if err := dec.Decode(&rep); err != nil || rep.Findings == nil {
		t.Fatalf("-json output does not decode as a report (findings %v): %v", rep.Findings, err)
	}
}

func TestEscapeUpdateRequiresBaselinePath(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-escape-update", "."}, &out, &errOut); code != 2 {
		t.Fatalf("run(-escape-update) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-escape-baseline") {
		t.Errorf("stderr should point at the missing flag: %s", errOut.String())
	}
}

// TestEscapeBaselineMissingFailsBeforeCompiling pins both the exit
// code and the fail-fast order: an unreadable escape baseline is a
// usage error (2), diagnosed without paying for a compile.
func TestEscapeBaselineMissingFailsBeforeCompiling(t *testing.T) {
	findings, code := runEscape(".", "/nonexistent/escape.json", false, &strings.Builder{})
	if code != 2 || findings != nil {
		t.Fatalf("runEscape(missing baseline) = (%v, %d), want (nil, 2)", findings, code)
	}
}

// moduleRuns analyses the whole module twice in one process, once at
// the default GOMAXPROCS and once at GOMAXPROCS=1, each run emitting
// -json and the -lockgraph DOT together: the first writes the graph to
// a file, the second streams it to stdout ahead of the JSON. The tests
// below share the two runs, so the module is analysed at most twice
// however many of them run.
var moduleRuns struct {
	once     sync.Once
	procs    int    // the default GOMAXPROCS of the first run
	json     string // the first run's -json output
	dot      string // the first run's -lockgraph file
	serial   string // the second run's stdout: DOT, then JSON
	failures string // why a run failed, if one did
}

func analyzeModule(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	moduleRuns.once.Do(func() {
		t.Chdir(filepath.Join("..", ".."))
		run1 := func(args ...string) (string, bool) {
			var out, errOut strings.Builder
			if code := run(args, &out, &errOut); code != 0 {
				moduleRuns.failures += fmt.Sprintf("run(%v) = %d\nstdout: %s\nstderr: %s\n", args, code, out.String(), errOut.String())
				return "", false
			}
			return out.String(), true
		}
		dotPath := filepath.Join(t.TempDir(), "lock.dot")
		moduleRuns.procs = runtime.GOMAXPROCS(0)
		first, ok := run1("-json", "-lockgraph", dotPath, "./...")
		if !ok {
			return
		}
		dot, err := os.ReadFile(dotPath)
		if err != nil {
			moduleRuns.failures = err.Error()
			return
		}
		moduleRuns.json, moduleRuns.dot = first, string(dot)
		old := runtime.GOMAXPROCS(1)
		moduleRuns.serial, _ = run1("-json", "-lockgraph", "-", "./...")
		runtime.GOMAXPROCS(old)
	})
	if moduleRuns.failures != "" {
		t.Fatal(moduleRuns.failures)
	}
}

// TestModuleJSONDeterministic is the determinism regression for the
// lock-fact layer and the analyzers on top of it: the whole module is
// loaded and analyzed twice in one process, and the -json bytes must
// be identical — across runs and across GOMAXPROCS=1 versus the
// default, so no map-iteration order or scheduling artifact can reach
// the report.
func TestModuleJSONDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module analysis in -short mode")
	}
	analyzeModule(t)
	serialJSON, ok := strings.CutPrefix(moduleRuns.serial, moduleRuns.dot)
	if !ok {
		t.Fatalf("second run's stdout does not open with the lock graph:\n%s", moduleRuns.serial)
	}
	if moduleRuns.json != serialJSON {
		t.Fatalf("-json differs between GOMAXPROCS=%d and GOMAXPROCS=1:\n%s\n---\n%s", moduleRuns.procs, moduleRuns.json, serialJSON)
	}
}

// TestLockGraphDeterministicDOT pins the -lockgraph artifact: valid
// DOT, byte-identical across runs, and "-" streaming the same bytes to
// stdout as the file receives.
func TestLockGraphDeterministicDOT(t *testing.T) {
	analyzeModule(t)
	dot := moduleRuns.dot
	if !strings.HasPrefix(dot, "digraph lockorder {\n") || !strings.HasSuffix(dot, "}\n") {
		t.Fatalf("-lockgraph output is not the expected DOT document:\n%s", dot)
	}
	if !strings.HasPrefix(moduleRuns.serial, dot) {
		t.Fatalf("-lockgraph output not byte-identical across runs, or - differs from file output:\n%s\n---\n%s", dot, moduleRuns.serial)
	}
}

// TestEscapeDiffCleanAtHead runs the real compiler diff against the
// checked-in baseline from the repo root: HEAD must be regression-free
// (the same pin scripts/check.sh enforces, kept close to the code).
func TestEscapeDiffCleanAtHead(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	t.Chdir(filepath.Join("..", ".."))
	var out, errOut strings.Builder
	code := run([]string{
		"-escape-baseline", "escape.baseline.json",
		"./internal/netsim", "./internal/placement",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("escape diff not clean at HEAD (exit %d):\n%s%s", code, out.String(), errOut.String())
	}
}
