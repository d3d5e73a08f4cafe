package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdmd"
)

const sampleGML = `graph [
  node [ id 0 label "hub" ]
  node [ id 1 label "west" ]
  node [ id 2 label "east" ]
  edge [ source 0 target 1 ]
  edge [ source 0 target 2 ]
  edge [ source 1 target 2 ]
]`

func writeGMLFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.gml")
	if err := os.WriteFile(path, []byte(sampleGML), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunGMLProducesSolvableSpec(t *testing.T) {
	path := writeGMLFile(t)
	var out bytes.Buffer
	if err := runGML(path, 0.3, 0.5, 1, false, false, 0, &out); err != nil {
		t.Fatal(err)
	}
	spec, err := tdmd.DecodeSpecStrict(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(spec.Nodes))
	}
	if len(spec.Flows) == 0 {
		t.Fatal("no flows generated")
	}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(context.Background(), tdmd.AlgGTP, 2); err != nil {
		t.Fatalf("GML spec unsolvable: %v", err)
	}
}

func TestRunGMLDot(t *testing.T) {
	path := writeGMLFile(t)
	var out bytes.Buffer
	if err := runGML(path, 0.3, 0.5, 1, true, false, 0, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "digraph G {") {
		t.Fatalf("not DOT:\n%.120s", out.String())
	}
}

func TestRunGMLMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := runGML("/no/such.gml", 0.3, 0.5, 1, false, false, 0, &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunNewFabricKinds(t *testing.T) {
	for _, kind := range []string{"leafspine", "jellyfish"} {
		var out bytes.Buffer
		size := 8
		if err := run(kind, size, 0.5, 0.5, 1, false, 4, 1, &out); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		spec, err := tdmd.DecodeSpecStrict(&out)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(spec.Nodes) == 0 {
			t.Fatalf("%s: empty spec", kind)
		}
	}
}

func TestRunNDJSONStreamsSolvableProblem(t *testing.T) {
	for _, kind := range []string{"tree", "general", "fattree"} {
		var out bytes.Buffer
		if err := runNDJSON(kind, 16, 0.5, 0.5, 1, 4, 1, 50, &out); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		p, err := tdmd.DecodeStream(&out)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		inst := p.Instance()
		if inst.G.NumNodes() == 0 {
			t.Fatalf("%s: empty topology", kind)
		}
		if inst.NumFlows() == 0 {
			t.Fatalf("%s: no flows streamed", kind)
		}
		if _, err := p.Solve(context.Background(), tdmd.AlgGTP, 4); err != nil {
			t.Fatalf("%s: NDJSON stream unsolvable: %v", kind, err)
		}
	}
}

// The tree kind's NDJSON stream declares its root, so tree algorithms
// work straight off the wire.
func TestRunNDJSONTreeDeclaresRoot(t *testing.T) {
	var out bytes.Buffer
	if err := runNDJSON("tree", 16, 0.5, 0.5, 1, 4, 1, 30, &out); err != nil {
		t.Fatal(err)
	}
	p, err := tdmd.DecodeStream(&out)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tree() == nil {
		t.Fatal("tree stream did not declare a root")
	}
	if _, err := p.Solve(context.Background(), tdmd.AlgDP, 4); err != nil {
		t.Fatalf("DP on streamed tree: %v", err)
	}
}

func TestRunGMLNDJSON(t *testing.T) {
	path := writeGMLFile(t)
	var out bytes.Buffer
	if err := runGML(path, 0.3, 0.5, 1, false, true, 10, &out); err != nil {
		t.Fatal(err)
	}
	p, err := tdmd.DecodeStream(&out)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instance().G.NumNodes() != 3 || p.Instance().NumFlows() == 0 {
		t.Fatalf("|V|=%d |F|=%d", p.Instance().G.NumNodes(), p.Instance().NumFlows())
	}
}

// encodeSpec switches to the compact encoding above the threshold.
func TestEncodeSpecCompactThreshold(t *testing.T) {
	small := tdmd.ProblemSpec{Nodes: []string{"a", "b"}, Edges: [][2]int{{0, 1}}, Root: -1}
	var out bytes.Buffer
	if err := encodeSpec(&out, small); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\n  ") {
		t.Fatal("small spec not indented")
	}
	big := small
	big.Flows = make([]tdmd.FlowSpec, compactThreshold)
	for i := range big.Flows {
		big.Flows[i] = tdmd.FlowSpec{Rate: 1, Path: []int{0, 1}}
	}
	out.Reset()
	if err := encodeSpec(&out, big); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(out.Bytes(), []byte{'\n'}); got != 1 {
		t.Fatalf("big spec has %d newlines, want 1 (compact)", got)
	}
}
