package tdmd

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzDecodeSpec hardens the JSON ingestion path: arbitrary input must
// either fail cleanly or produce a spec that Build either rejects or
// turns into a solvable problem — never a panic. It is also the
// differential check between the two ways a spec document becomes a
// Problem: Spec.Build and DecodeStream over the spec's canonical
// encoding must both reject it or build the same instance.
func FuzzDecodeSpec(f *testing.F) {
	f.Add(`{"nodes":["a","b"],"edges":[[0,1]],"flows":[{"rate":1,"path":[0,1]}],"lambda":0.5,"root":-1}`)
	f.Add(`{"nodes":[],"edges":[],"flows":[],"lambda":0,"root":-1}`)
	f.Add(`{"nodes":["x"],"edges":[[0,0]],"flows":[{"rate":-3,"path":[0]}],"lambda":2,"root":0}`)
	f.Add(`{"nodes":["a","b","c"],"edges":[[0,1],[1,0],[1,2],[2,1]],"flows":[{"rate":2,"path":[2,1,0]}],"lambda":0.3,"root":0}`)
	f.Add(`{"nodes":["a","b","c"],"edges":[[0,1],[1,2]],"flows":[{"rate":2,"path":[0,1,2]},{"rate":3,"path":[0,1,2]},{"rate":1,"path":[1,2]}],"lambda":0,"root":-1}`)
	f.Add(`{"nodes":["a","b"],"edges":[[0,1]],"flows":[{"rate":2147483648,"path":[0,1]}],"lambda":0.5,"root":-1}`)
	f.Add(`{"nodes":["a","b"],"edges":[[0,1]],"flows":[{"rate":1,"path":[0,1]}],"lambda":-1,"root":-1}`)
	f.Add(`not json at all`)
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := DecodeSpecStrict(strings.NewReader(input))
		if err != nil {
			return
		}
		// Guard against adversarial blow-up: huge specs are legal but
		// too slow to solve inside the fuzzer.
		if len(spec.Nodes) > 64 || len(spec.Edges) > 512 || len(spec.Flows) > 128 {
			return
		}
		var doc bytes.Buffer
		if err := EncodeSpecCompact(&doc, spec); err != nil {
			t.Fatalf("compact encode failed: %v", err)
		}
		p, err := spec.Build()
		streamed, streamErr := DecodeStream(&doc)
		if (err == nil) != (streamErr == nil) {
			t.Fatalf("Spec.Build error %v, DecodeStream error %v", err, streamErr)
		}
		if err != nil {
			return
		}
		requireSameInstance(t, p, streamed)
		// Any built problem must round-trip and be safely solvable.
		var buf bytes.Buffer
		if err := EncodeSpec(&buf, SpecFromProblem(p.Instance().G, p.Instance().Flows(), p.Instance().Lambda)); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if _, err := p.Solve(context.Background(), AlgGTP, 4); err != nil && err != ErrInfeasible && !strings.Contains(err.Error(), "infeasible") {
			t.Fatalf("Solve returned unexpected error class: %v", err)
		}
	})
}

// requireSameInstance fails unless two problems hold the same
// workload: flow for flow, class for class, raw demand to the bit, and
// both with or both without a tree.
func requireSameInstance(t *testing.T, want, got *Problem) {
	t.Helper()
	a, b := want.Instance(), got.Instance()
	if a.NumFlows() != b.NumFlows() || a.NumClasses() != b.NumClasses() {
		t.Fatalf("%d flows in %d classes, want %d in %d", b.NumFlows(), b.NumClasses(), a.NumFlows(), a.NumClasses())
	}
	for i := 0; i < a.NumFlows(); i++ {
		if a.FlowRate(i) != b.FlowRate(i) || !slices.Equal(a.FlowPath(i), b.FlowPath(i)) {
			t.Fatalf("flow %d: rate %d path %v, want rate %d path %v", i, b.FlowRate(i), b.FlowPath(i), a.FlowRate(i), a.FlowPath(i))
		}
	}
	if math.Float64bits(a.RawDemand()) != math.Float64bits(b.RawDemand()) {
		t.Fatalf("raw demand %v, want %v", b.RawDemand(), a.RawDemand())
	}
	if (want.Tree() == nil) != (got.Tree() == nil) {
		t.Fatalf("tree attached: %v, want %v", got.Tree() != nil, want.Tree() != nil)
	}
}

// FuzzReadTrace hardens the CSV trace parser.
func FuzzReadTrace(f *testing.F) {
	f.Add("a,c,4\nb,c,2\n")
	f.Add("# comment\n\na,b,0.4\n")
	f.Add("a,b\n")
	f.Add("a,zzz,1\n")
	f.Add(",,,\n")
	f.Fuzz(func(t *testing.T, input string) {
		g := NewGraph()
		a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
		g.AddBiEdge(a, b)
		g.AddBiEdge(b, c)
		flows, err := ReadTrace(strings.NewReader(input), g)
		if err != nil {
			return
		}
		// Whatever parsed must be a valid workload.
		if _, err := NewProblem(g, flows, 0.5); err != nil {
			t.Fatalf("parsed trace fails validation: %v", err)
		}
	})
}
