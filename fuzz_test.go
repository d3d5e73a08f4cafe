package tdmd

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strconv"
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

// FuzzReadTrace hardens the CSV trace parser: on any input ReadTrace
// either fails cleanly or returns one flow per record, each running
// from the record's src to its dst over a minimum-hop path, as a
// workload NewProblem accepts. The graph is a-b-c with both directions
// of each link, plus an isolated d, so unroutable pairs occur too.
func FuzzReadTrace(f *testing.F) {
	f.Add("a,c,4\nb,c,2\n")
	f.Add("# comment\n\na,b,0.4\n")
	f.Add("a,b\n")
	f.Add("a,zzz,1\n")
	f.Add(",,,\n")
	// The cases of internal/traffic/trace_test.go.
	f.Add("# flows\na,c,4\nb,c,2.6\n\nc,a,1\n")
	f.Add("a,c\n")
	f.Add("a,c,abc\n")
	f.Add("a,a,1\n")
	f.Add("a,b,0.2\n")
	f.Add("a,d,1\n")
	f.Add(" c , a , 1e3 \r\n#x\n\tb,a,-7")
	// Rates beyond the rate arena, or not numbers at all: line-numbered
	// errors, never a silent rate of 1 or a trace NewProblem rejects.
	f.Add("a,b,NaN\n")
	f.Add("a,b,inf\n")
	f.Add("a,b,1e30\n")
	f.Add("a,b,2170000000\n")
	f.Fuzz(func(t *testing.T, input string) {
		g := NewGraph()
		a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
		g.AddNode("d")
		g.AddBiEdge(a, b)
		g.AddBiEdge(b, c)
		flows, err := ReadTrace(strings.NewReader(input), g)
		if err != nil {
			return
		}
		// An accepted trace has one flow per record, in order.
		var records [][]string
		for _, line := range strings.Split(input, "\n") {
			line = strings.TrimSpace(line)
			if line != "" && !strings.HasPrefix(line, "#") {
				records = append(records, strings.Split(line, ","))
			}
		}
		if len(flows) != len(records) {
			t.Fatalf("%d flows from %d records", len(flows), len(records))
		}
		for i, fl := range flows {
			src := g.NodeByName(strings.TrimSpace(records[i][0]))
			dst := g.NodeByName(strings.TrimSpace(records[i][1]))
			if fl.Src() != src || fl.Dst() != dst {
				t.Fatalf("flow %d runs %d -> %d, record %q says %d -> %d", i, fl.Src(), fl.Dst(), records[i], src, dst)
			}
			r, _ := strconv.ParseFloat(strings.TrimSpace(records[i][2]), 64)
			if want := max(math.Floor(r+0.5), 1); float64(fl.Rate) != want {
				t.Fatalf("flow %d has rate %d, record %q rounds to %v", i, fl.Rate, records[i], want)
			}
			sp, err := g.ShortestPath(src, dst)
			if err != nil || fl.Path.Len() != sp.Len() {
				t.Fatalf("flow %d has %d hops, shortest path %v (%v)", i, fl.Path.Len(), sp, err)
			}
		}
		// Whatever parsed must be a valid workload.
		if _, err := NewProblem(g, flows, 0.5); err != nil {
			t.Fatalf("parsed trace fails validation: %v", err)
		}
	})
}
