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

func specFile(t *testing.T) string {
	t.Helper()
	g, flows, lambda := paperfix.Fig1()
	spec := tdmd.SpecFromProblem(g, flows, lambda)
	path := filepath.Join(t.TempDir(), "spec.json")
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

func TestRunSimulation(t *testing.T) {
	path := specFile(t)
	var out bytes.Buffer
	if err := run(context.Background(), path, tdmd.AlgGTP, 3, 200, 1.0, 3.0, 7, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"plan:", "arrivals:", "time-avg bandwidth:", "peak link load:", "(0 unserved)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), "/does/not/exist", tdmd.AlgGTP, 3, 100, 1, 3, 1, &out); err == nil {
		t.Fatal("missing spec accepted")
	}
	path := specFile(t)
	if err := run(context.Background(), path, tdmd.AlgGTP, 1, 100, 1, 3, 1, &out); err == nil {
		t.Fatal("infeasible budget accepted")
	}
	if err := run(context.Background(), path, tdmd.AlgGTP, 3, -5, 1, 3, 1, &out); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

// A misspelled spec field is an error, as in cmd/tdmd: decoded
// leniently, "lamda" would silently solve with λ = 0.
func TestRunRejectsUnknownSpecField(t *testing.T) {
	data, err := os.ReadFile(specFile(t))
	if err != nil {
		t.Fatal(err)
	}
	typo := bytes.Replace(data, []byte(`"lambda"`), []byte(`"lamda"`), 1)
	if bytes.Equal(typo, data) {
		t.Fatal("spec has no lambda field to misspell")
	}
	path := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(path, typo, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = runArgs(context.Background(), []string{"-spec", path}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown field "lamda"`) {
		t.Fatalf("misspelled field: err = %v, want unknown field \"lamda\"", err)
	}
}

// The default flags must suit every algorithm: randomized ones are
// seeded from -seed, and unbudgeted ones do not get the default -k.
func TestRunDefaultFlagsEveryAlgorithmKind(t *testing.T) {
	path := specFile(t)
	for _, alg := range []tdmd.Algorithm{tdmd.AlgRandom, tdmd.AlgGTPLazy} {
		var out bytes.Buffer
		if err := runArgs(context.Background(), []string{"-spec", path, "-alg", string(alg)}, &out); err != nil {
			t.Fatalf("%s with default flags: %v", alg, err)
		}
		if !strings.Contains(out.String(), "arrivals:") {
			t.Fatalf("%s: output missing arrivals:\n%s", alg, out.String())
		}
	}
	// An explicit -k still reaches an unbudgeted algorithm and is
	// rejected there rather than silently dropped.
	var out bytes.Buffer
	if err := runArgs(context.Background(), []string{"-spec", path, "-alg", string(tdmd.AlgGTPLazy), "-k", "3"}, &out); err == nil {
		t.Fatal("explicit -k accepted by an unbudgeted algorithm")
	}
}
