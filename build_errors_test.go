package tdmd

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// TestBuildErrorTexts pins, byte for byte, the error of every
// single-fault input through ProblemSpec.Build and NewProblem, and the
// validation order of repeated paths: a repeat of a valid path has
// only its rate checked, a repeat of an invalid one is rejected again. The
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
			"netsim: lambda must be finite and non-negative, got -0.5",
			"netsim: lambda must be finite and non-negative, got -0.5"},
		{"NaN lambda", func(s *ProblemSpec) { s.Lambda = math.NaN() },
			"netsim: lambda must be finite and non-negative, got NaN",
			"netsim: lambda must be finite and non-negative, got NaN"},
		{"+Inf lambda", func(s *ProblemSpec) { s.Lambda = math.Inf(1) },
			"netsim: lambda must be finite and non-negative, got +Inf",
			"netsim: lambda must be finite and non-negative, got +Inf"},
		{"-Inf lambda", func(s *ProblemSpec) { s.Lambda = math.Inf(-1) },
			"netsim: lambda must be finite and non-negative, got -Inf",
			"netsim: lambda must be finite and non-negative, got -Inf"},
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
		// A repeated path is not validated again, but its flow's rate is.
		{"rate 0 on a repeated path", badFlow(0, 0, 1, 2),
			"traffic: flow 1: invalid path: non-positive rate 0",
			"traffic: flow 7: invalid path: non-positive rate 0"},
		{"rate 2^31 on a repeated path", badFlow(1<<31, 0, 1, 2),
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

	// The builder's and the online placer's λ setters share that check
	// and its text; λ > 1 (an expanding middlebox) stays legal.
	for _, lambda := range []float64{-0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		want := fmt.Sprintf("netsim: lambda must be finite and non-negative, got %v", lambda)
		if got := errText(NewProblemBuilder().SetLambda(lambda)); got != want {
			t.Errorf("SetLambda(%v) error %q, want %q", lambda, got, want)
		}
		if _, err := NewOnlinePlacer(NewGraph(), lambda, 1); errText(err) != want {
			t.Errorf("NewOnlinePlacer(λ=%v) error %q, want %q", lambda, errText(err), want)
		}
	}
	if err := NewProblemBuilder().SetLambda(2); err != nil {
		t.Errorf("SetLambda(2): %v", err)
	}

	// An invalid path never becomes a path class, so each flow that
	// carries it is validated and rejected at its own index with the
	// same text, and the builder stays usable.
	b := NewProblemBuilder()
	for _, name := range []string{"a", "b", "c"} {
		if _, err := b.AddNode(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	const bad = "traffic: flow %d: invalid path at hop 0 (0 -> 2): consecutive hops are not joined by an edge"
	for i := 0; i < 2; i++ {
		if err := b.AddFlow(1, []int{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
		if got, want := errText(b.AddFlow(1, []int{0, 2})), fmt.Sprintf(bad, i+1); got != want {
			t.Fatalf("repeat %d: error %q, want %q", i, got, want)
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in := p.Instance(); in.NumFlows() != 2 || in.NumClasses() != 1 {
		t.Fatalf("built %d flows in %d classes, want 2 in 1", in.NumFlows(), in.NumClasses())
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
