package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
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

// TestModuleJSONDeterministic is the determinism regression for the
// lock-fact layer and the analyzers on top of it: the whole module is
// loaded and analyzed twice in one process, and the -json bytes must
// be identical — across runs and across GOMAXPROCS=1 versus the
// default, so no map-iteration order or scheduling artifact can reach
// the report.
func TestModuleJSONDeterministic(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	if testing.Short() {
		t.Skip("full-module analysis in -short mode")
	}
	t.Chdir(filepath.Join("..", ".."))

	runOnce := func() string {
		var out, errOut strings.Builder
		if code := run([]string{"-json", "./..."}, &out, &errOut); code != 0 {
			t.Fatalf("run(-json ./...) = %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
		}
		return out.String()
	}

	first := runOnce()
	second := runOnce()
	if first != second {
		t.Fatalf("-json not byte-identical across two in-process module runs:\n%s\n---\n%s", first, second)
	}

	old := runtime.GOMAXPROCS(1)
	serial := runOnce()
	runtime.GOMAXPROCS(old)
	if first != serial {
		t.Fatalf("-json differs between GOMAXPROCS=%d and GOMAXPROCS=1:\n%s\n---\n%s", old, first, serial)
	}
}

// TestLockGraphDeterministicDOT pins the -lockgraph artifact: valid
// DOT, byte-identical across runs, and carrying the serve engine's
// known lock nesting (Engine.mu acquired before the plan cache's).
func TestLockGraphDeterministicDOT(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	t.Chdir(filepath.Join("..", ".."))

	dump := func(path string) string {
		var out, errOut strings.Builder
		if code := run([]string{"-only", "droppederror", "-lockgraph", path, "./..."}, &out, &errOut); code != 0 {
			t.Fatalf("run(-lockgraph) = %d\nstderr: %s", code, errOut.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	dir := t.TempDir()
	first := dump(filepath.Join(dir, "a.dot"))
	second := dump(filepath.Join(dir, "b.dot"))
	if first != second {
		t.Fatalf("-lockgraph output not byte-identical:\n%s\n---\n%s", first, second)
	}
	if !strings.HasPrefix(first, "digraph lockorder {\n") || !strings.HasSuffix(first, "}\n") {
		t.Fatalf("-lockgraph output is not the expected DOT document:\n%s", first)
	}

	// "-" streams the same bytes to stdout instead.
	var out, errOut strings.Builder
	if code := run([]string{"-only", "droppederror", "-lockgraph", "-", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("run(-lockgraph -) = %d\nstderr: %s", code, errOut.String())
	}
	if out.String() != first {
		t.Fatalf("-lockgraph - differs from file output:\n%s\n---\n%s", out.String(), first)
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
