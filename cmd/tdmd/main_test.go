package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdmd"
	"tdmd/internal/paperfix"
)

func writeFig1Spec(t *testing.T) string {
	t.Helper()
	g, flows, lambda := paperfix.Fig1()
	spec := tdmd.SpecFromProblem(g, flows, lambda)
	path := filepath.Join(t.TempDir(), "fig1.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tdmd.EncodeSpec(f, spec); err != nil {
		t.Fatal(err)
	}
	return path
}

// fileLoader adapts a spec path to the loadFunc the run helpers take.
func fileLoader(path string) loadFunc {
	return func() (*tdmd.Problem, error) { return loadProblem(path, false) }
}

func TestRunGTPOnFig1Spec(t *testing.T) {
	path := writeFig1Spec(t)
	var out bytes.Buffer
	if err := run(context.Background(), fileLoader(path), tdmd.AlgGTP, 3, 1, false, "", &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"algorithm:  gtp", "bandwidth:  8", "6 vertices", "middlebox on"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunQuietPrintsOnlyBandwidth(t *testing.T) {
	path := writeFig1Spec(t)
	var out bytes.Buffer
	if err := run(context.Background(), fileLoader(path), tdmd.AlgGTP, 3, 1, true, "", &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "8" {
		t.Fatalf("quiet output = %q, want 8", out.String())
	}
}

// TestRunMultiStartLS: -alg multistart-ls -k 3 -seed 3 reaches Fig. 1's
// optimum of 8, and -alg's usage text names it.
func TestRunMultiStartLS(t *testing.T) {
	path := writeFig1Spec(t)
	var out bytes.Buffer
	if err := run(context.Background(), fileLoader(path), tdmd.AlgMultiStartLS, 3, 3, true, "", &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "8" {
		t.Fatalf("multistart-ls output = %q, want 8", out.String())
	}
	if !strings.Contains(algorithmList(), "multistart-ls") {
		t.Fatalf("-alg usage omits multistart-ls: %s", algorithmList())
	}
}

func TestRunTreeAlgWithoutRootFails(t *testing.T) {
	path := writeFig1Spec(t)
	var out bytes.Buffer
	err := run(context.Background(), fileLoader(path), tdmd.AlgDP, 3, 1, false, "", &out)
	if err == nil || !strings.Contains(err.Error(), "root") {
		t.Fatalf("err = %v, want root hint", err)
	}
}

func TestRunMissingSpecFile(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), fileLoader("/nonexistent/spec.json"), tdmd.AlgGTP, 3, 1, false, "", &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunCompareMode(t *testing.T) {
	path := writeFig1Spec(t)
	var out bytes.Buffer
	if err := runCompare(context.Background(), fileLoader(path), 3, 1, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"algorithm", "gtp ", "random", "best-effort", "exhaustive", "raw demand 16"} {
		if !strings.Contains(text, want) {
			t.Fatalf("compare output missing %q:\n%s", want, text)
		}
	}
	// multistart-ls gets a row with a bandwidth, not an error.
	if !strings.Contains(text, "\nmultistart-ls ") || strings.Contains(text, "requires option") {
		t.Fatalf("compare output has no multistart-ls result row:\n%s", text)
	}
	// Fig. 1 has no declared root: tree algorithms must be skipped.
	if strings.Contains(text, "\ndp ") || strings.Contains(text, "\nhat ") {
		t.Fatalf("tree algorithms listed without a tree:\n%s", text)
	}
}

func TestRunInfeasibleBudget(t *testing.T) {
	path := writeFig1Spec(t)
	var out bytes.Buffer
	if err := run(context.Background(), fileLoader(path), tdmd.AlgGTP, 1, 1, false, "", &out); err == nil {
		t.Fatal("k=1 on Fig. 1 should be infeasible")
	}
}

func TestRunCapacitated(t *testing.T) {
	path := writeFig1Spec(t)
	var out bytes.Buffer
	if err := runCapacitated(context.Background(), fileLoader(path), 3, 4, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "capacity 4 per box") || !strings.Contains(text, "load") {
		t.Fatalf("capacitated output wrong:\n%s", text)
	}
	if err := runCapacitated(context.Background(), fileLoader(path), 2, 4, &out); err == nil {
		t.Fatal("infeasible capacitated budget accepted")
	}
}

func TestRunSaveAndEvalPlan(t *testing.T) {
	path := writeFig1Spec(t)
	planPath := filepath.Join(t.TempDir(), "plan.json")
	var out bytes.Buffer
	if err := run(context.Background(), fileLoader(path), tdmd.AlgGTP, 3, 1, false, planPath, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "plan saved to") {
		t.Fatalf("missing save confirmation:\n%s", out.String())
	}
	out.Reset()
	if err := runEvalPlan(fileLoader(path), planPath, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bandwidth: 8 (feasible=true)") {
		t.Fatalf("eval output wrong:\n%s", out.String())
	}
	if err := runEvalPlan(fileLoader(path), "/does/not/exist.json", &out); err == nil {
		t.Fatal("missing plan file accepted")
	}
}
