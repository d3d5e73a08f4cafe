package tdmd

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"tdmd/internal/paperfix"
)

func fig1Problem(t *testing.T) *Problem {
	t.Helper()
	g, flows, lambda := paperfix.Fig1()
	p, err := NewProblem(g, flows, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func fig5Problem(t *testing.T) *Problem {
	t.Helper()
	g, tree, flows, lambda := paperfix.Fig5()
	p, err := NewProblem(g, flows, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return p.WithTree(tree)
}

func TestSolveGTPFig1(t *testing.T) {
	p := fig1Problem(t)
	r, err := p.Solve(context.Background(), AlgGTP, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bandwidth != 8 || !r.Feasible {
		t.Fatalf("GTP k=3: %+v", r)
	}
}

func TestSolveAllAlgorithmsFig5(t *testing.T) {
	p := fig5Problem(t)
	p.WithSeed(1) // AlgRandom requires an explicit seed now
	for _, alg := range Algorithms() {
		k := 3
		if !alg.Budgeted() {
			k = 0 // unbudgeted algorithms reject an explicit k
		}
		r, err := p.Solve(context.Background(), alg, k)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !r.Feasible {
			t.Fatalf("%s: infeasible result", alg)
		}
		if r.Bandwidth < 12-1e-9 || r.Bandwidth > 24+1e-9 {
			t.Fatalf("%s: bandwidth %v outside [12, 24]", alg, r.Bandwidth)
		}
	}
	// DP and exhaustive agree on the optimum.
	dp, _ := p.Solve(context.Background(), AlgDP, 3)
	ex, _ := p.Solve(context.Background(), AlgExhaustive, 3)
	if math.Abs(dp.Bandwidth-ex.Bandwidth) > 1e-9 || dp.Bandwidth != 13.5 {
		t.Fatalf("DP %v vs exhaustive %v, want 13.5", dp.Bandwidth, ex.Bandwidth)
	}
}

func TestAlgorithmsAllRegistered(t *testing.T) {
	// Every facade Algorithm must resolve to a registry solver; Doc()
	// comes straight from the solver's traits, so an empty doc means the
	// facade name and the registry drifted apart.
	for _, alg := range Algorithms() {
		if alg.Doc() == "" {
			t.Fatalf("%s is not backed by a registered solver", alg)
		}
	}
	if Algorithm("nope").Doc() != "" {
		t.Fatal("unknown algorithm reported a doc line")
	}
}

func TestSolveBadOptionsTyped(t *testing.T) {
	p := fig5Problem(t)
	// Explicit budget on the unbudgeted lazy greedy: the old facade
	// silently dropped k, now it is ErrBadOptions.
	if _, err := p.Solve(context.Background(), AlgGTPLazy, 3); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("gtp-lazy with k: got %v, want ErrBadOptions", err)
	}
	// Random without a seed anywhere: the old facade silently used the
	// global stream.
	if _, err := p.Solve(context.Background(), AlgRandom, 3); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("random without seed: got %v, want ErrBadOptions", err)
	}
}

func TestSolveTreeAlgNeedsTree(t *testing.T) {
	p := fig1Problem(t)
	for _, alg := range []Algorithm{AlgDP, AlgHAT} {
		if !alg.NeedsTree() {
			t.Fatalf("%s must need a tree", alg)
		}
		if _, err := p.Solve(context.Background(), alg, 3); err == nil {
			t.Fatalf("%s without tree accepted", alg)
		}
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	p := fig1Problem(t)
	if _, err := p.Solve(context.Background(), "nope", 3); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSolveRandomSeeded(t *testing.T) {
	p := fig1Problem(t)
	a, err := p.WithSeed(5).Solve(context.Background(), AlgRandom, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.WithSeed(5).Solve(context.Background(), AlgRandom, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.String() != b.Plan.String() {
		t.Fatal("seeded Random not reproducible")
	}
}

func TestEvaluate(t *testing.T) {
	p := fig1Problem(t)
	r := p.Evaluate(NewPlan(paperfix.V(2), paperfix.V(5)))
	if !r.Feasible || r.Bandwidth != 12 {
		t.Fatalf("Evaluate = %+v", r)
	}
	bad := p.Evaluate(NewPlan(paperfix.V(5)))
	if bad.Feasible {
		t.Fatal("partial plan reported feasible")
	}
}

func TestGTPLazyInfeasibleWorkload(t *testing.T) {
	// A flow whose path has no coverable vertex cannot happen (its own
	// source counts), so GTPLazy should always succeed on valid input.
	p := fig1Problem(t)
	r, err := p.Solve(context.Background(), AlgGTPLazy, 0) // k ignored
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("lazy GTP infeasible on valid instance")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	g, flows, lambda := paperfix.Fig1()
	spec := SpecFromProblem(g, flows, lambda)
	var buf bytes.Buffer
	if err := EncodeSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSpecStrict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := back.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Solve(context.Background(), AlgGTP, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bandwidth != 8 {
		t.Fatalf("round-tripped GTP bandwidth = %v, want 8", r.Bandwidth)
	}
}

func TestSpecWithRootEnablesTreeAlgs(t *testing.T) {
	g, _, flows, lambda := paperfix.Fig5()
	spec := SpecFromProblem(g, flows, lambda)
	spec.Root = 0
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Solve(context.Background(), AlgDP, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bandwidth != 13.5 {
		t.Fatalf("DP via spec = %v, want 13.5", r.Bandwidth)
	}
}

func TestSpecRejectsBadInput(t *testing.T) {
	if _, err := DecodeSpecStrict(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	bad := ProblemSpec{Nodes: []string{"a"}, Edges: [][2]int{{0, 5}}, Root: -1}
	if _, err := bad.Build(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	bad2 := ProblemSpec{
		Nodes:  []string{"a", "b"},
		Edges:  [][2]int{{0, 1}},
		Flows:  []FlowSpec{{Rate: 1, Path: []int{0, 9}}},
		Lambda: 0.5, Root: -1,
	}
	if _, err := bad2.Build(); err == nil {
		t.Fatal("out-of-range flow path accepted")
	}
	badRoot := ProblemSpec{
		Nodes: []string{"a", "b", "c"},
		// Triangle: not a tree.
		Edges:  [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}},
		Flows:  []FlowSpec{{Rate: 1, Path: []int{1, 0}}},
		Lambda: 0.5, Root: 0,
	}
	if _, err := badRoot.Build(); err == nil {
		t.Fatal("cyclic graph with root accepted")
	}
}

func TestGeneratorsExposedViaFacade(t *testing.T) {
	g := RandomTree(22, 0, 3)
	tr, err := NewTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	flows := TreeFlows(tr, GenConfig{Density: 0.5, Seed: 4})
	if len(flows) == 0 {
		t.Fatal("no flows")
	}
	p, err := NewProblem(g, flows, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p.WithTree(tr)
	dp, err := p.Solve(context.Background(), AlgDP, 8)
	if err != nil {
		t.Fatal(err)
	}
	hat, err := p.Solve(context.Background(), AlgHAT, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hat.Bandwidth < dp.Bandwidth-1e-9 {
		t.Fatalf("HAT %v beat DP %v", hat.Bandwidth, dp.Bandwidth)
	}
	ark := ArkLike(DefaultArkConfig(7))
	if !ark.WeaklyConnected() {
		t.Fatal("Ark facade broken")
	}
	if FatTree(4).NumNodes() != 20 || BCube(4, 1).NumNodes() != 24 {
		t.Fatal("datacenter generators broken")
	}
	merged := MergeSameSource(flows)
	if len(merged) > len(flows) {
		t.Fatal("merge grew the workload")
	}
}

func TestFacadeReExportsSmoke(t *testing.T) {
	// One-call smoke over every re-exported generator and helper so the
	// facade cannot silently drift from the internal packages.
	if BinaryTree(3).NumNodes() != 7 {
		t.Fatal("BinaryTree")
	}
	if !GeneralRandom(12, 0.5, 1).WeaklyConnected() {
		t.Fatal("GeneralRandom")
	}
	ark := ArkLike(DefaultArkConfig(2))
	st := SpanningTree(ark, 0)
	if _, err := NewTree(st, 0); err != nil {
		t.Fatalf("SpanningTree: %v", err)
	}
	if LeafSpine(2, 3).NumNodes() != 5 {
		t.Fatal("LeafSpine")
	}
	if Jellyfish(8, 3, 1).NumNodes() != 8 {
		t.Fatal("Jellyfish")
	}
	var gml bytes.Buffer
	if err := WriteGML(&gml, ark); err != nil {
		t.Fatalf("WriteGML: %v", err)
	}
	back, err := ReadGML(&gml)
	if err != nil || back.NumNodes() != ark.NumNodes() {
		t.Fatalf("GML round trip: %v", err)
	}
	d := DefaultCAIDALike()
	if d.Cap == 0 {
		t.Fatal("DefaultCAIDALike")
	}
	flows := GeneralFlows(ark, []NodeID{0}, GenConfig{Density: 0.2, Seed: 3})
	if len(flows) == 0 {
		t.Fatal("GeneralFlows")
	}
	p, err := NewProblem(ark, flows, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Solve(context.Background(), AlgGTPLazy, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Report(res.Plan)
	if !rep.Feasible || rep.String() == "" {
		t.Fatalf("Report: %+v", rep)
	}
}

func TestPlanSpecRoundTrip(t *testing.T) {
	g, flows, lambda := paperfix.Fig1()
	p, err := NewProblem(g, flows, lambda)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(paperfix.V(2), paperfix.V(5))
	var buf bytes.Buffer
	if err := EncodePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePlan(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != plan.String() {
		t.Fatalf("round trip: %v != %v", back, plan)
	}
	if p.Evaluate(back).Bandwidth != 12 {
		t.Fatal("round-tripped plan mis-scores")
	}
	// Out-of-range vertex rejected.
	bad := bytes.NewBufferString(`{"vertices":[99]}`)
	if _, err := DecodePlan(bad, g); err == nil {
		t.Fatal("out-of-range plan vertex accepted")
	}
	if _, err := DecodePlan(bytes.NewBufferString("not json"), g); err == nil {
		t.Fatal("bad JSON accepted")
	}
	// A misspelled key is an error naming the field, not the empty plan.
	if _, err := DecodePlan(bytes.NewBufferString(`{"vertexes":[1,2]}`), g); err == nil || !strings.Contains(err.Error(), `"vertexes"`) {
		t.Fatalf("misspelled plan key: err = %v", err)
	}
}
