package tdmd

import (
	"bytes"
	"testing"
)

// TestBuildErrorTexts pins, byte for byte, the error of every
// single-fault input through ProblemSpec.Build and NewProblem. The
// faulty flow is the second one: spec errors name it by index (1),
// NewProblem errors by the caller's flow ID (7). Faults only a spec
// can carry (root, edges, tree) have no NewProblem text. The sum
// Σ r·|p| cannot overflow here: rates below 2³¹ times fewer than 2³¹
// arena hops stay below 2⁶², so netsim's TestDemandOverflowGuard pins
// that check instead.
func TestBuildErrorTexts(t *testing.T) {
	badFlow := func(rate int, path ...int) func(*ProblemSpec) {
		return func(s *ProblemSpec) { s.Flows[1] = FlowSpec{Rate: rate, Path: path} }
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*ProblemSpec)
		spec    string
		problem string
	}{
		{"root out of range", func(s *ProblemSpec) { s.Root = 3 },
			"tdmd: spec root 3 out of range (3 nodes)", ""},
		{"edge out of range", func(s *ProblemSpec) { s.Edges = append(s.Edges, [2]int{0, 3}) },
			"tdmd: spec edge [0 3] out of range", ""},
		{"flow vertex out of range", badFlow(2, 2, 3),
			"tdmd: spec flow 1 path vertex 3 out of range",
			"traffic: flow 7: invalid path at hop 1 (3 -> 3): vertex 3 outside graph (n=3)"},
		{"negative lambda", func(s *ProblemSpec) { s.Lambda = -0.5 },
			"netsim: negative lambda -0.5",
			"netsim: negative lambda -0.5"},
		{"rate 0", badFlow(0, 2, 1),
			"traffic: flow 1: invalid path: non-positive rate 0",
			"traffic: flow 7: invalid path: non-positive rate 0"},
		{"empty path", badFlow(2),
			"traffic: flow 1: invalid path: empty path",
			"traffic: flow 7: invalid path: empty path"},
		{"one-vertex path", badFlow(2, 2),
			"traffic: flow 1: invalid path: single-vertex path has no edges",
			"traffic: flow 7: invalid path: single-vertex path has no edges"},
		{"repeated vertex", badFlow(2, 2, 1, 2),
			"traffic: flow 1: invalid path at hop 2 (2 -> 2): vertex 2 visited twice (positions 0 and 2)",
			"traffic: flow 7: invalid path at hop 2 (2 -> 2): vertex 2 visited twice (positions 0 and 2)"},
		{"non-adjacent hop", badFlow(2, 2, 0),
			"traffic: flow 1: invalid path at hop 0 (2 -> 0): consecutive hops are not joined by an edge",
			"traffic: flow 7: invalid path at hop 0 (2 -> 0): consecutive hops are not joined by an edge"},
		{"rate 2^31", badFlow(1<<31, 2, 1),
			"netsim: flow 1 rate 2147483648 overflows the rate arena",
			"netsim: flow 7 rate 2147483648 overflows the rate arena"},
		{"root on a non-tree", func(s *ProblemSpec) {
			s.Edges = append(s.Edges, [2]int{0, 2}, [2]int{2, 0})
			s.Root = 0
		}, "tdmd: spec declares root 0 but graph is not a tree: graph: not a tree rooted at the given vertex", ""},
	} {
		spec := ProblemSpec{
			Nodes:  []string{"a", "b", "c"},
			Edges:  [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}},
			Flows:  []FlowSpec{{Rate: 1, Path: []int{0, 1, 2}}, {Rate: 2, Path: []int{2, 1}}},
			Lambda: 0.5, Root: -1,
		}
		tc.mutate(&spec)
		if _, err := spec.Build(); errText(err) != tc.spec {
			t.Errorf("%s: Spec.Build error %q, want %q", tc.name, errText(err), tc.spec)
		}
		if tc.problem == "" {
			continue
		}
		g := NewGraph()
		for _, name := range spec.Nodes {
			g.AddNode(name)
		}
		for _, e := range spec.Edges {
			g.AddEdge(NodeID(e[0]), NodeID(e[1]))
		}
		flows := make([]Flow, len(spec.Flows))
		for i, fs := range spec.Flows {
			path := make(Path, len(fs.Path))
			for j, v := range fs.Path {
				path[j] = NodeID(v)
			}
			flows[i] = Flow{ID: 7 * i, Rate: fs.Rate, Path: path}
		}
		if _, err := NewProblem(g, flows, spec.Lambda); errText(err) != tc.problem {
			t.Errorf("%s: NewProblem error %q, want %q", tc.name, errText(err), tc.problem)
		}
	}
}

// TestStreamRateOverflowText: the stream decoders report an
// out-of-range rate with the same netsim text as Spec.Build.
func TestStreamRateOverflowText(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewFlowStreamWriter(&buf, StreamHeader{Nodes: []string{"a", "b"}, Edges: [][2]int{{0, 1}}, Root: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(1, Path{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(1<<31, Path{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	const want = "netsim: flow 1 rate 2147483648 overflows the rate arena"
	if _, err := DecodeStream(&buf); errText(err) != want {
		t.Fatalf("DecodeStream error %q, want %q", errText(err), want)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
