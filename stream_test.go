package tdmd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// specFixture builds a deterministic random spec: a connected random
// graph with hub-destination flows, unique vertex names, root unset.
func specFixture(t testing.TB, seed int64) ProblemSpec {
	t.Helper()
	g := GeneralRandom(40, 0.5, seed)
	flows := GeneralFlows(g, []NodeID{0, 1}, GenConfig{Density: 0.5, Seed: seed})
	if len(flows) == 0 {
		t.Fatalf("seed %d generated no flows", seed)
	}
	return SpecFromProblem(g, flows, 0.4)
}

// builderFromSpec feeds a spec through the builder API, the way a
// streaming ingester would.
func builderFromSpec(t *testing.T, spec ProblemSpec) *Problem {
	t.Helper()
	b := NewProblemBuilder()
	for _, name := range spec.Nodes {
		if _, err := b.AddNode(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range spec.Edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetLambda(spec.Lambda); err != nil {
		t.Fatal(err)
	}
	b.SetRoot(spec.Root)
	for _, fs := range spec.Flows {
		if err := b.AddFlow(fs.Rate, fs.Path); err != nil {
			t.Fatal(err)
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// requireSameSolve asserts two problems are bit-identical under the
// given algorithm: same plan, same bandwidth to the last bit.
func requireSameSolve(t *testing.T, want, got *Problem, alg Algorithm, k int) {
	t.Helper()
	ctx := context.Background()
	rw, err := want.Solve(ctx, alg, k)
	if err != nil {
		t.Fatalf("%s: spec-built solve: %v", alg, err)
	}
	rg, err := got.Solve(ctx, alg, k)
	if err != nil {
		t.Fatalf("%s: builder-built solve: %v", alg, err)
	}
	if rw.Plan.String() != rg.Plan.String() {
		t.Errorf("%s: plans differ: spec %s, builder %s", alg, rw.Plan, rg.Plan)
	}
	if rw.Bandwidth != rg.Bandwidth {
		t.Errorf("%s: bandwidths differ: spec %v, builder %v", alg, rw.Bandwidth, rg.Bandwidth)
	}
}

// TestBuilderMatchesSpecBuild is the metamorphic bit-identity gate:
// over random instances, the builder path and ProblemSpec.Build must
// produce indistinguishable problems — identical raw demand, plans and
// bandwidths (float accumulation order included).
func TestBuilderMatchesSpecBuild(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		spec := specFixture(t, seed)
		pSpec, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		pBld := builderFromSpec(t, spec)
		if a, b := pSpec.Instance().RawDemand(), pBld.Instance().RawDemand(); a != b {
			t.Fatalf("seed %d: raw demand differs: %v vs %v", seed, a, b)
		}
		pSpec.WithSeed(seed)
		pBld.WithSeed(seed)
		for _, alg := range []Algorithm{AlgGTP, AlgGTPLazy, AlgRandom} {
			k := 6
			if !alg.Budgeted() {
				k = 0
			}
			requireSameSolve(t, pSpec, pBld, alg, k)
		}
	}
}

// TestBuilderMatchesSpecBuildTree repeats the bit-identity gate on a
// rooted tree so the DP and the tree attach point are covered.
func TestBuilderMatchesSpecBuildTree(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := RandomTree(30, 3, seed)
		tr, err := NewTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		flows := TreeFlows(tr, GenConfig{Density: 0.5, Seed: seed})
		spec := SpecFromProblem(g, flows, 0.5)
		spec.Root = 0
		pSpec, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		pBld := builderFromSpec(t, spec)
		if pBld.Tree() == nil {
			t.Fatal("builder did not attach the declared root's tree")
		}
		requireSameSolve(t, pSpec, pBld, AlgDP, 4)
		requireSameSolve(t, pSpec, pBld, AlgGTP, 4)
	}
}

// TestBuilderMatchesSpecBuildGolden pins the paper's Fig. 1 fixture:
// the builder path must reproduce the published GTP outcome exactly.
func TestBuilderMatchesSpecBuildGolden(t *testing.T) {
	pRef := fig1Problem(t)
	inst := pRef.Instance()
	spec := SpecFromProblem(inst.G, inst.Flows(), inst.Lambda)
	pSpec, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	pBld := builderFromSpec(t, spec)
	requireSameSolve(t, pRef, pSpec, AlgGTP, 3)
	requireSameSolve(t, pRef, pBld, AlgGTP, 3)
}

// TestDecodeStreamSpecDocument: the streaming decoder must accept a
// plain spec document and build the same problem as DecodeSpec+Build.
func TestDecodeStreamSpecDocument(t *testing.T) {
	spec := specFixture(t, 11)
	var buf bytes.Buffer
	if err := EncodeSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	pRef, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	pStr, err := DecodeStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if pStr.Instance().NumFlows() != pRef.Instance().NumFlows() {
		t.Fatalf("flows: %d vs %d", pStr.Instance().NumFlows(), pRef.Instance().NumFlows())
	}
	requireSameSolve(t, pRef, pStr, AlgGTP, 5)
}

// TestStreamRoundTripNDJSON: FlowStreamWriter → DecodeStream must
// reproduce the source problem bit-identically.
func TestStreamRoundTripNDJSON(t *testing.T) {
	spec := specFixture(t, 13)
	pRef, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	h := StreamHeader{Nodes: spec.Nodes, Edges: spec.Edges, Lambda: spec.Lambda, Root: spec.Root}
	w, err := NewFlowStreamWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	inst := pRef.Instance()
	for i := 0; i < inst.NumFlows(); i++ {
		if err := w.Add(inst.FlowRate(i), inst.FlowPath(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Flows() != inst.NumFlows() {
		t.Fatalf("writer counted %d flows, want %d", w.Flows(), inst.NumFlows())
	}
	// Every flow is one line: header + |F| lines total.
	if lines := bytes.Count(buf.Bytes(), []byte{'\n'}); lines != inst.NumFlows()+1 {
		t.Fatalf("stream has %d lines, want %d", lines, inst.NumFlows()+1)
	}
	pStr, err := DecodeStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if pStr.Instance().Lambda != spec.Lambda {
		t.Fatalf("lambda: %v, want %v", pStr.Instance().Lambda, spec.Lambda)
	}
	requireSameSolve(t, pRef, pStr, AlgGTP, 5)
}

func TestDecodeStreamRejectsUnknownField(t *testing.T) {
	_, err := DecodeStream(strings.NewReader(
		`{"nodes":["a","b"],"edges":[[0,1]],"flows":[],"lamda":0.5,"root":-1}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), "lamda") {
		t.Fatalf("error should name the field: %v", err)
	}
}

func TestDecodeStreamRejectsUnsupportedFormat(t *testing.T) {
	_, err := DecodeStream(strings.NewReader(`{"format":"tdmd-flows/9","nodes":["a","b"],"edges":[[0,1]],"lambda":0.5,"root":-1}`))
	if err == nil || !strings.Contains(err.Error(), "tdmd-flows/9") {
		t.Fatalf("unsupported format not rejected by name: %v", err)
	}
}

func TestDecodeStreamRejectsBadFlowLine(t *testing.T) {
	head := `{"format":"tdmd-flows/1","nodes":["a","b"],"edges":[[0,1],[1,0]],"lambda":0.5,"root":-1}` + "\n"
	for _, tc := range []struct{ name, line, want string }{
		{"truncated", `{"rate":1,"pa`, "flow 0"},
		{"non-adjacent", `{"rate":1,"path":[1,0,1]}`, "visited twice"},
		{"empty path", `{"rate":1,"path":[]}`, "empty path"},
		{"zero rate", `{"rate":0,"path":[0,1]}`, "non-positive rate"},
		{"out of range", `{"rate":1,"path":[0,9]}`, "outside graph"},
	} {
		_, err := DecodeStream(strings.NewReader(head + tc.line + "\n"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestBuilderPathValidation pins the typed rejection contract: every
// malformed flow is an ErrInvalidPath-wrapped *PathError locating the
// flow and hop, and the builder survives the rejection.
func TestBuilderPathValidation(t *testing.T) {
	newB := func() *ProblemBuilder {
		b := NewProblemBuilder()
		for _, n := range []string{"a", "b", "c"} {
			if _, err := b.AddNode(n); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.AddBiEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddBiEdge(1, 2); err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		rate int
		path []int
		hop  int
	}{
		{"empty path", 1, nil, -1},
		{"single vertex", 1, []int{0}, -1},
		{"repeated vertex", 1, []int{0, 1, 0}, 2},
		{"non-adjacent hop", 1, []int{0, 2}, 0},
		{"non-positive rate", 0, []int{0, 1}, -1},
		{"vertex out of range", 1, []int{0, 7}, 1},
	} {
		b := newB()
		err := b.AddFlow(tc.rate, tc.path)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, ErrInvalidPath) {
			t.Fatalf("%s: not ErrInvalidPath: %v", tc.name, err)
		}
		var pe *PathError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: not a *PathError: %v", tc.name, err)
		}
		if pe.Flow != 0 || pe.Hop != tc.hop {
			t.Errorf("%s: located at flow %d hop %d, want flow 0 hop %d (%v)",
				tc.name, pe.Flow, pe.Hop, tc.hop, err)
		}
		// The rejection must roll back: the next valid flow is flow 0
		// and the builder still builds.
		if err := b.AddFlow(2, []int{0, 1, 2}); err != nil {
			t.Fatalf("%s: builder unusable after rejection: %v", tc.name, err)
		}
		p, err := b.Build()
		if err != nil {
			t.Fatalf("%s: build after rejection: %v", tc.name, err)
		}
		if p.Instance().NumFlows() != 1 {
			t.Errorf("%s: %d flows, want 1", tc.name, p.Instance().NumFlows())
		}
	}
}

// TestBuilderFreezeAndSpend pins the lifecycle: topology mutation ends
// at the first AddFlow, and everything ends at Build.
func TestBuilderFreezeAndSpend(t *testing.T) {
	b := NewProblemBuilder()
	if _, err := b.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddNode("b"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBiEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFlow(1, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddNode("c"); err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("AddNode after freeze: %v", err)
	}
	if err := b.AddEdge(0, 1); err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("AddEdge after freeze: %v", err)
	}
	if err := b.LoadGML(strings.NewReader("graph [ ]")); err == nil {
		t.Fatal("LoadGML after freeze accepted")
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build accepted")
	}
	if err := b.AddFlow(1, []int{0, 1}); err == nil {
		t.Fatal("AddFlow after Build accepted")
	}
}

// TestBuilderInternsLabels: repeated labels resolve to the existing
// vertex through the builder API (unlike positional spec decoding).
func TestBuilderInternsLabels(t *testing.T) {
	b := NewProblemBuilder()
	a1, err := b.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.AddNode("b")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("label %q interned to %d then %d", "a", a1, a2)
	}
	if a1 == c {
		t.Fatal("distinct labels share a vertex")
	}
}

// TestBuilderLoadGML: a GML topology feeds the builder, labels usable
// by interning, and the result solves.
func TestBuilderLoadGML(t *testing.T) {
	const gml = `graph [
  node [ id 0 label "hub" ]
  node [ id 1 label "west" ]
  node [ id 2 label "east" ]
  edge [ source 0 target 1 ]
  edge [ source 0 target 2 ]
]`
	b := NewProblemBuilder()
	if err := b.LoadGML(strings.NewReader(gml)); err != nil {
		t.Fatal(err)
	}
	// InternNode resolves the loaded labels.
	hub, err := b.AddNode("hub")
	if err != nil {
		t.Fatal(err)
	}
	west, err := b.AddNode("west")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetLambda(0.5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFlow(3, []int{west, hub}); err != nil {
		t.Fatal(err)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Solve(context.Background(), AlgGTP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("GML-fed problem infeasible")
	}
}

func TestBuilderRejectsNegativeLambda(t *testing.T) {
	if err := NewProblemBuilder().SetLambda(-0.1); err == nil {
		t.Fatal("negative lambda accepted")
	}
}

// TestDecodeStreamWorkingMemoryIndependent is the O(1) decoder claim
// in allocation terms: decoding 10x the flows must not cost 10x the
// allocations — past the topology header and the arena growth, the
// per-flow cost is zero allocations (one reused FlowSpec).
func TestDecodeStreamWorkingMemoryIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting in -short mode")
	}
	stream := func(flows int) []byte {
		g := GeneralRandom(60, 0.5, 3)
		var buf bytes.Buffer
		w, err := NewFlowStreamWriter(&buf, StreamHeader{
			Nodes: specNodes(g), Edges: specEdges(g), Lambda: 0.5, Root: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := GenerateGeneralFlows(g, []NodeID{0, 1},
			GenConfig{Density: 1e12, Seed: 3, MaxFlows: flows},
			func(f Flow) error { return w.Add(f.Rate, f.Path) }); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	small, big := stream(2000), stream(20000)
	count := func(data []byte) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := DecodeStream(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	aSmall, aBig := count(small), count(big)
	t.Logf("allocs: %d flows -> %.0f, %d flows -> %.0f", 2000, aSmall, 20000, aBig)
	// 10x flows must stay within a constant (header + arena doubling),
	// nowhere near the 10x a per-flow object graph would cost.
	if aBig > aSmall+600 {
		t.Errorf("decoder allocations scale with flow count: %.0f -> %.0f for 10x flows", aSmall, aBig)
	}
}

func specNodes(g *Graph) []string {
	var nodes []string
	for _, v := range g.Nodes() {
		nodes = append(nodes, g.Name(v))
	}
	return nodes
}

func specEdges(g *Graph) [][2]int {
	var edges [][2]int
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{int(e.From), int(e.To)})
	}
	return edges
}

// TestIngestMetricsExposed: a streaming ingest must move the obs
// counters and set the bytes/flow gauge.
func TestIngestMetricsExposed(t *testing.T) {
	spec := specFixture(t, 17)
	var buf bytes.Buffer
	if err := EncodeSpecCompact(&buf, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeStream(&buf); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := WriteMetricsJSON(&out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tdmd_ingest_bytes_total", "tdmd_ingest_flows_total", "tdmd_ingest_bytes_per_flow"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("metrics exposition missing %s", name)
		}
	}
}

// FuzzStreamDecode hardens the streaming decoder the way FuzzDecodeSpec
// hardens the document path: arbitrary bytes — malformed NDJSON,
// truncated streams, wrong formats — must fail cleanly or produce a
// solvable problem, never panic, never hang.
func FuzzStreamDecode(f *testing.F) {
	f.Add(`{"nodes":["a","b"],"edges":[[0,1]],"flows":[{"rate":1,"path":[0,1]}],"lambda":0.5,"root":-1}`)
	f.Add(`{"format":"tdmd-flows/1","nodes":["a","b"],"edges":[[0,1],[1,0]],"lambda":0.5,"root":-1}` + "\n" +
		`{"rate":1,"path":[0,1]}` + "\n" + `{"rate":2,"path":[1,0]}` + "\n")
	f.Add(`{"format":"tdmd-flows/1","nodes":["a","b"],"edges":[[0,1]],"lambda":0.5,"root":-1}` + "\n" + `{"rate":1,"pa`)
	f.Add(`{"format":"tdmd-flows/2","nodes":[],"edges":[],"lambda":0,"root":-1}`)
	f.Add(`{"format":"tdmd-flows/1","nodes":["a"],"edges":null,"lambda":0,"root":0}`)
	f.Add(`{"nodes":["a","b"],"edges":[[0,1]],"flows":null,"lambda":0.5,"root":-1}`)
	f.Add(`{"flows":[{"rate":1,"path":[0,1]}],"nodes":["a","b"]}`)
	f.Add(`{"nodes":["a","b"],"edges":[[0,1]],"surprise":1}`)
	f.Add(``)
	f.Add(`[]`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, input string) {
		// Bound adversarial blow-up the same way FuzzDecodeSpec does.
		if len(input) > 1<<16 {
			return
		}
		p, err := DecodeStream(strings.NewReader(input))
		if err != nil {
			return
		}
		inst := p.Instance()
		if inst.G.NumNodes() > 64 || inst.NumFlows() > 128 {
			return
		}
		if _, err := p.Solve(context.Background(), AlgGTP, 4); err != nil &&
			!errors.Is(err, ErrInfeasible) && !strings.Contains(err.Error(), "infeasible") {
			t.Fatalf("Solve returned unexpected error class: %v", err)
		}
	})
}

// jsonFlowStream is the reference NDJSON decoder: the header and
// every flow through one json.Decoder, each flow line decoded into a
// reused FlowSpec. The stream decoder's canonical-line scanner must be
// indistinguishable from it on every input. The header must be valid
// and its node names unique (the reference interns them).
func jsonFlowStream(r io.Reader) (*Problem, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var h StreamHeader
	if err := dec.Decode(&h); err != nil {
		return nil, err
	}
	b := NewProblemBuilder()
	for _, name := range h.Nodes {
		if _, err := b.AddNode(name); err != nil {
			return nil, err
		}
	}
	for _, e := range h.Edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	if err := b.SetLambda(h.Lambda); err != nil {
		return nil, err
	}
	b.SetRoot(h.Root)
	var fs FlowSpec
	for flows := 0; ; flows++ {
		fs.Rate, fs.Path = 0, fs.Path[:0]
		if err := dec.Decode(&fs); err != nil {
			if errors.Is(err, io.EOF) {
				return b.Build()
			}
			return nil, fmt.Errorf("tdmd: stream: decoding flow %d: %w", flows, err)
		}
		if err := b.AddFlow(fs.Rate, fs.Path); err != nil {
			return nil, err
		}
	}
}

// flowDiffHeader is a 4-vertex ring plus one back edge, with no
// trailing newline: the tails below start with the header's own
// line end, or deliberately without one.
const flowDiffHeader = `{"format":"tdmd-flows/1","nodes":["a","b","c","d"],` +
	`"edges":[[0,1],[1,2],[2,3],[3,0],[1,0]],"lambda":0.5,"root":-1}`

// requireSameAsJSON decodes the stream newStream returns through
// DecodeStream and through jsonFlowStream and requires the same
// accept/reject, the same error text and the same flows.
func requireSameAsJSON(t *testing.T, name string, newStream func() io.Reader) {
	t.Helper()
	got, gotErr := DecodeStream(newStream())
	want, wantErr := jsonFlowStream(newStream())
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: DecodeStream error %v, encoding/json error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	gi, wi := got.Instance(), want.Instance()
	if gi.NumFlows() != wi.NumFlows() {
		t.Fatalf("%s: %d flows, encoding/json decodes %d", name, gi.NumFlows(), wi.NumFlows())
	}
	for i := 0; i < gi.NumFlows(); i++ {
		if gi.FlowRate(i) != wi.FlowRate(i) || gi.FlowPath(i).String() != wi.FlowPath(i).String() {
			t.Fatalf("%s: flow %d is (%d, %v), encoding/json decodes (%d, %v)", name, i,
				gi.FlowRate(i), gi.FlowPath(i), wi.FlowRate(i), wi.FlowPath(i))
		}
	}
}

// flowTailCases are NDJSON tails following flowDiffHeader: canonical
// lines the scanner takes, and the non-canonical shapes it must hand
// to encoding/json unchanged.
var flowTailCases = []struct{ name, tail string }{
	{"canonical", "\n{\"rate\":1,\"path\":[0,1]}\n{\"rate\":2,\"path\":[1,2,3]}\n"},
	{"no tail", ""},
	{"header newline only", "\n"},
	{"flow on the header line", "{\"rate\":1,\"path\":[0,1]}\n"},
	{"crlf", "\r\n{\"rate\":1,\"path\":[0,1]}\r\n{\"rate\":2,\"path\":[1,2]}\r\n"},
	{"blank lines", "\n\n \t\n{\"rate\":1,\"path\":[0,1]}\n\n\r\n{\"rate\":2,\"path\":[1,2]}\n  "},
	{"no final newline", "\n{\"rate\":1,\"path\":[0,1]}\n{\"rate\":2,\"path\":[1,2]}"},
	{"truncated last line", "\n{\"rate\":1,\"path\":[0,1]}\n{\"rate\":1,\"pa"},
	{"two objects on a line", "\n{\"rate\":1,\"path\":[0,1]}{\"rate\":2,\"path\":[1,2]}\n{\"rate\":3,\"path\":[2,3]}\n"},
	{"object split across lines", "\n{\"rate\":1,\n\"path\":[0,1]}\n{\"rate\":2,\"path\":[1,2]}\n"},
	{"capitalised key", "\n{\"Rate\":3,\"path\":[0,1]}\n"},
	{"keys reordered", "\n{\"path\":[0,1],\"rate\":3}\n"},
	{"duplicate key", "\n{\"rate\":1,\"rate\":4,\"path\":[0,1]}\n"},
	{"missing rate", "\n{\"path\":[0,1]}\n"},
	{"leading zero rate", "\n{\"rate\":01,\"path\":[0,1]}\n"},
	{"leading zero hop", "\n{\"rate\":1,\"path\":[00,1]}\n"},
	{"float rate", "\n{\"rate\":1.0,\"path\":[0,1]}\n"},
	{"exponent rate", "\n{\"rate\":1e0,\"path\":[0,1]}\n"},
	{"18-digit rate", "\n{\"rate\":123456789012345678,\"path\":[0,1]}\n"},
	{"19-digit rate", "\n{\"rate\":1234567890123456789,\"path\":[0,1]}\n"},
	{"20-digit rate", "\n{\"rate\":12345678901234567890,\"path\":[0,1]}\n"},
	{"20-digit hop", "\n{\"rate\":1,\"path\":[0,12345678901234567890]}\n"},
	{"negative rate", "\n{\"rate\":-1,\"path\":[0,1]}\n"},
	{"negative zero hop", "\n{\"rate\":1,\"path\":[-0,1]}\n"},
	{"null path", "\n{\"rate\":1,\"path\":null}\n"},
	{"empty path", "\n{\"rate\":1,\"path\":[]}\n"},
	{"unknown key", "\n{\"rate\":1,\"path\":[0,1],\"via\":2}\n"},
	{"trailing space", "\n{\"rate\":1,\"path\":[0,1]} \n{\"rate\":2,\"path\":[1,2]}\n"},
	{"leading space", "\n {\"rate\":1,\"path\":[0,1]}\n"},
	{"inner space", "\n{\"rate\": 1,\"path\":[0, 1]}\n"},
	{"trailing comma", "\n{\"rate\":1,\"path\":[0,1,]}\n"},
	{"not json", "\nnot json\n"},
	{"bad hop after canonical lines", "\n{\"rate\":1,\"path\":[0,1]}\n{\"rate\":1,\"path\":[1,2]}\n{\"rate\":1,\"path\":[0,2]}\n"},
	{"bad hop after hand-off", "\n{\"rate\":1,\"path\":[0,1]}\n{\"rate\":1, \"path\":[1,2]}\n{\"rate\":1,\"path\":[0,2]}\n"},
	{"hop outside graph", "\n{\"rate\":1,\"path\":[0,9]}\n"},
	{"repeated hop", "\n{\"rate\":1,\"path\":[0,1,0]}\n"},
}

// TestStreamFlowLinesMatchJSON is the table half of the differential
// oracle: every tail in flowTailCases decodes exactly as
// encoding/json decodes it, also when the source fails mid-line.
func TestStreamFlowLinesMatchJSON(t *testing.T) {
	for _, tc := range flowTailCases {
		requireSameAsJSON(t, tc.name, func() io.Reader {
			return strings.NewReader(flowDiffHeader + tc.tail)
		})
	}
	// A read error mid-stream surfaces with the same text, wrapped so
	// errors.As still finds it (the service's 413 depends on that),
	// even from a source that reports it only once.
	errSource := errors.New("source failed")
	for _, cut := range []string{"", `{"rate":1,"pa`, `{"rate":2,"path":[1,2]}`} {
		newStream := func() io.Reader {
			return io.MultiReader(strings.NewReader(flowDiffHeader+"\n{\"rate\":1,\"path\":[0,1]}\n"+cut),
				&onceErrReader{errSource})
		}
		requireSameAsJSON(t, "read error after "+cut, newStream)
		if _, err := DecodeStream(newStream()); !errors.Is(err, errSource) {
			t.Errorf("read error after %q: %v does not wrap the source error", cut, err)
		}
	}
}

// onceErrReader fails its first Read with err and reports EOF after.
type onceErrReader struct{ err error }

func (r *onceErrReader) Read([]byte) (int, error) {
	if err := r.err; err != nil {
		r.err = nil
		return 0, err
	}
	return 0, io.EOF
}

// TestStreamFlowIndexAfterHeaderFlows: flows carried in the NDJSON
// header's own "flows" array count toward the index that flow-line
// errors report.
func TestStreamFlowIndexAfterHeaderFlows(t *testing.T) {
	head := strings.TrimSuffix(flowDiffHeader, "}") + `,"flows":[{"rate":1,"path":[0,1]}]}`
	for _, tail := range []string{"\n{\"rate\":1,\"pa", "\n{\"rate\":1,\"path\":[1,2]}\n{\"rate\":1,\"pa"} {
		want := fmt.Sprintf("decoding flow %d:", strings.Count(tail, "\n"))
		if _, err := DecodeStream(strings.NewReader(head + tail)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("tail %q: error %v, want %q", tail, err, want)
		}
	}
}

// TestStreamFlowLineLongerThanBuffer: a line past the line reader's
// buffer is handed to encoding/json whole, and canonical lines after
// it still decode the same.
func TestStreamFlowLineLongerThanBuffer(t *testing.T) {
	const n = 2000 // a 0 -> n-1 hop list of ~9 KB, past the 4 KB reader buffer
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprint("v", i))
	}
	path := make(Path, n)
	for i := range path {
		path[i] = NodeID(i)
		if i > 0 {
			g.AddEdge(NodeID(i-1), NodeID(i))
		}
	}
	var buf bytes.Buffer
	w, err := NewFlowStreamWriter(&buf, StreamHeader{Nodes: specNodes(g), Edges: specEdges(g), Lambda: 0.5, Root: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Path{path[:2], path, path[3:9], path[1:]} {
		if err := w.Add(7, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	requireSameAsJSON(t, "long line", func() io.Reader { return bytes.NewReader(stream) })
	repeated := bytes.Replace(stream, []byte("[0,1]"), []byte("[0,1,0]"), 1)
	requireSameAsJSON(t, "long line after a bad flow", func() io.Reader { return bytes.NewReader(repeated) })
}

// TestScanFlowLine pins what the scanner itself claims: the writer's
// own lines, which keeps the fast path on for every FlowStreamWriter
// stream, and nothing else.
func TestScanFlowLine(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewFlowStreamWriter(&buf, StreamHeader{})
	if err != nil {
		t.Fatal(err)
	}
	want := []FlowSpec{{Rate: 1, Path: []int{0}}, {Rate: 42, Path: []int{0, 17, 3}}, {Rate: 1<<31 - 1, Path: []int{999999999}}}
	for _, fs := range want {
		p := make(Path, len(fs.Path))
		for i, v := range fs.Path {
			p[i] = NodeID(v)
		}
		if err := w.Add(fs.Rate, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))[1:] // drop the header
	fs := FlowSpec{Path: []int{5, 5, 5, 5}}
	for i, wfs := range want {
		if !scanFlowLine(lines[i], &fs) {
			t.Fatalf("writer line %q not scanned", lines[i])
		}
		if fs.Rate != wfs.Rate || fmt.Sprint(fs.Path) != fmt.Sprint(wfs.Path) {
			t.Fatalf("line %q scanned as %+v, want %+v", lines[i], fs, wfs)
		}
	}
	for _, tc := range flowTailCases {
		for _, line := range bytes.SplitAfter([]byte(tc.tail), []byte("\n")) {
			var fs FlowSpec
			if scanFlowLine(line, &fs) {
				var ref FlowSpec
				dec := json.NewDecoder(bytes.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&ref); err != nil || ref.Rate != fs.Rate || fmt.Sprint(ref.Path) != fmt.Sprint(fs.Path) {
					t.Errorf("%s: scanned %q as %+v; encoding/json gives %+v, %v", tc.name, line, fs, ref, err)
				}
			}
		}
	}
	for _, line := range []string{
		`{"rate":1,"path":[0,1]}`, `{"rate":1,"path":[0,1]}` + "\r\n", `{"rate":1,"path":[]}` + "\n",
		`{"rate":01,"path":[0]}` + "\n", `{"rate":1234567890123456789,"path":[0]}` + "\n",
		`{"rate":1,"path":[-0]}` + "\n", `{"rate":1,"path":[0]} ` + "\n", `{"Rate":1,"path":[0]}` + "\n",
	} {
		if scanFlowLine([]byte(line), &fs) {
			t.Errorf("scanner claimed non-canonical line %q", line)
		}
	}
}

// FuzzStreamFlowLines is the generated half of the differential
// oracle: any tail after a valid header decodes through DecodeStream
// exactly as through a json.Decoder-only loop — same accept/reject,
// same error text, same flows.
func FuzzStreamFlowLines(f *testing.F) {
	for _, tc := range flowTailCases {
		f.Add(tc.tail)
	}
	f.Fuzz(func(t *testing.T, tail string) {
		if len(tail) > 1<<14 {
			return
		}
		requireSameAsJSON(t, fmt.Sprintf("tail %q", tail), func() io.Reader {
			return strings.NewReader(flowDiffHeader + tail)
		})
	})
}

// TestDecodeSpecStrictNamesUnknownField: an unknown field is an error
// naming the field, never silently dropped.
func TestDecodeSpecStrictNamesUnknownField(t *testing.T) {
	const doc = `{"nodes":["a","b"],"edges":[[0,1]],"flows":[],"lamda":0.5,"root":-1}`
	_, err := DecodeSpecStrict(strings.NewReader(doc))
	if err == nil {
		t.Fatal("strict decode accepted unknown field")
	}
	if !strings.Contains(err.Error(), "lamda") {
		t.Fatalf("strict error should name the field: %v", err)
	}
}

// TestEncodeSpecCompact: the compact encoding is the same document
// modulo whitespace, and strictly smaller.
func TestEncodeSpecCompactRoundTrip(t *testing.T) {
	spec := specFixture(t, 19)
	var indented, compact bytes.Buffer
	if err := EncodeSpec(&indented, spec); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSpecCompact(&compact, spec); err != nil {
		t.Fatal(err)
	}
	if compact.Len() >= indented.Len() {
		t.Fatalf("compact (%d bytes) not smaller than indented (%d bytes)", compact.Len(), indented.Len())
	}
	back, err := DecodeSpecStrict(&compact)
	if err != nil {
		t.Fatal(err)
	}
	pA, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	pB, err := back.Build()
	if err != nil {
		t.Fatal(err)
	}
	requireSameSolve(t, pA, pB, AlgGTP, 5)
}
