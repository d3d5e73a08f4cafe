package tdmd

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// FuzzDecodeSpec hardens the JSON ingestion path: arbitrary input must
// either fail cleanly or produce a spec that Build either rejects or
// turns into a solvable problem — never a panic.
func FuzzDecodeSpec(f *testing.F) {
	f.Add(`{"nodes":["a","b"],"edges":[[0,1]],"flows":[{"rate":1,"path":[0,1]}],"lambda":0.5,"root":-1}`)
	f.Add(`{"nodes":[],"edges":[],"flows":[],"lambda":0,"root":-1}`)
	f.Add(`{"nodes":["x"],"edges":[[0,0]],"flows":[{"rate":-3,"path":[0]}],"lambda":2,"root":0}`)
	f.Add(`{"nodes":["a","b","c"],"edges":[[0,1],[1,0],[1,2],[2,1]],"flows":[{"rate":2,"path":[2,1,0]}],"lambda":0.3,"root":0}`)
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
		p, err := spec.Build()
		if err != nil {
			return
		}
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
