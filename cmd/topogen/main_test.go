package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"tdmd"
)

func TestRunTreeSpec(t *testing.T) {
	var out bytes.Buffer
	if err := run("tree", 22, 0.5, 0.5, 1, false, 4, 1, &out); err != nil {
		t.Fatal(err)
	}
	spec, err := tdmd.DecodeSpecStrict(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Nodes) != 22 {
		t.Fatalf("nodes = %d", len(spec.Nodes))
	}
	if spec.Root < 0 {
		t.Fatal("tree spec must declare a root")
	}
	if len(spec.Flows) == 0 {
		t.Fatal("tree spec has no flows")
	}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(context.Background(), tdmd.AlgDP, 8); err != nil {
		t.Fatalf("generated tree spec unsolvable: %v", err)
	}
}

func TestRunGeneralSpec(t *testing.T) {
	var out bytes.Buffer
	if err := run("general", 30, 0.5, 0.5, 1, false, 4, 1, &out); err != nil {
		t.Fatal(err)
	}
	spec, err := tdmd.DecodeSpecStrict(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Nodes) != 30 || spec.Root >= 0 {
		t.Fatalf("unexpected spec shape: nodes=%d root=%d", len(spec.Nodes), spec.Root)
	}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(context.Background(), tdmd.AlgGTP, 10); err != nil {
		t.Fatalf("generated general spec unsolvable: %v", err)
	}
}

func TestRunFabricKinds(t *testing.T) {
	for _, kind := range []string{"ark", "fattree", "bcube", "binary"} {
		var out bytes.Buffer
		size := 22
		if kind == "binary" {
			size = 4 // levels
		}
		if err := run(kind, size, 0.5, 0.5, 1, false, 4, 1, &out); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := tdmd.DecodeSpecStrict(&out); err != nil {
			t.Fatalf("%s: bad spec: %v", kind, err)
		}
	}
}

func TestRunDOT(t *testing.T) {
	var out bytes.Buffer
	if err := run("fattree", 0, 0.5, 0.5, 1, true, 4, 1, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "digraph G {") || !strings.Contains(s, "->") {
		t.Fatalf("not DOT output:\n%.200s", s)
	}
}

func TestRunUnknownKind(t *testing.T) {
	var out bytes.Buffer
	if err := run("moebius", 10, 0.5, 0.5, 1, false, 4, 1, &out); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
