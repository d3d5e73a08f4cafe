package traffic

import (
	"math/rand"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/topology"
)

func testTree(t *testing.T) *graph.Tree {
	t.Helper()
	g := topology.RandomTree(22, 0, 11)
	tr, err := graph.NewTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFlowAccessors(t *testing.T) {
	f := Flow{ID: 3, Rate: 4, Path: graph.Path{5, 3, 1}}
	if f.Src() != 5 || f.Dst() != 1 || f.Hops() != 2 {
		t.Fatalf("accessors broken: %v", f)
	}
	if f.String() == "" {
		t.Fatal("empty String")
	}
}

func TestAggregates(t *testing.T) {
	flows := []Flow{
		{Rate: 4, Path: graph.Path{0, 1, 2}},
		{Rate: 2, Path: graph.Path{3, 2}},
	}
	if TotalRate(flows) != 6 {
		t.Fatalf("TotalRate = %d", TotalRate(flows))
	}
	if MaxRate(flows) != 4 {
		t.Fatalf("MaxRate = %d", MaxRate(flows))
	}
	if RawDemand(flows) != 4*2+2*1 {
		t.Fatalf("RawDemand = %v", RawDemand(flows))
	}
	if MaxRate(nil) != 0 || TotalRate(nil) != 0 || RawDemand(nil) != 0 {
		t.Fatal("empty aggregates must be zero")
	}
}

func TestValidate(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, b)
	good := []Flow{{ID: 0, Rate: 1, Path: graph.Path{a, b}}}
	if err := Validate(g, good); err != nil {
		t.Fatalf("valid flow rejected: %v", err)
	}
	bad := []Flow{{ID: 0, Rate: 0, Path: graph.Path{a, b}}}
	if err := Validate(g, bad); err == nil {
		t.Fatal("zero rate accepted")
	}
	bad = []Flow{{ID: 0, Rate: 1, Path: graph.Path{a}}}
	if err := Validate(g, bad); err == nil {
		t.Fatal("edgeless path accepted")
	}
	bad = []Flow{{ID: 0, Rate: 1, Path: graph.Path{b, a}}}
	if err := Validate(g, bad); err == nil {
		t.Fatal("path against edge direction accepted")
	}
}

func TestConstantDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if (Constant{Value: 5}).Sample(rng) != 5 {
		t.Fatal("Constant broken")
	}
	if (Constant{Value: -3}).Sample(rng) != 1 {
		t.Fatal("Constant must clamp to >= 1")
	}
}

func TestUniformDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := Uniform{Lo: 3, Hi: 7}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		r := u.Sample(rng)
		if r < 3 || r > 7 {
			t.Fatalf("Uniform out of range: %d", r)
		}
		seen[r] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Uniform covered %d values, want 5", len(seen))
	}
	if (Uniform{Lo: -2, Hi: 0}).Sample(rng) != 1 {
		t.Fatal("degenerate Uniform must clamp to 1")
	}
}

func TestCAIDALikeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := DefaultCAIDALike()
	var small, big, total int
	maxSeen := 0
	for i := 0; i < 20000; i++ {
		r := d.Sample(rng)
		if r < 1 || r > d.Cap {
			t.Fatalf("sample %d outside [1, %d]", r, d.Cap)
		}
		total += r
		if r <= 5 {
			small++
		}
		if r >= 20 {
			big++
		}
		if r > maxSeen {
			maxSeen = r
		}
	}
	// Heavy-tailed shape: mostly mice, a real elephant tail, clamp hit.
	if small < 12000 {
		t.Fatalf("only %d/20000 mice; distribution body too heavy", small)
	}
	if big < 200 {
		t.Fatalf("only %d/20000 elephants; tail too light", big)
	}
	if maxSeen != d.Cap {
		t.Fatalf("cap never reached (max=%d); Pareto tail suspect", maxSeen)
	}
}

func TestTreeFlowsProperties(t *testing.T) {
	tr := testTree(t)
	flows := TreeFlows(tr, GenConfig{Density: 0.5, Seed: 3})
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
	if err := Validate(tr.G, flows); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if f.Dst() != tr.Root {
			t.Fatalf("flow %d ends at %d, not the root", f.ID, f.Dst())
		}
		if !tr.IsLeaf(f.Src()) {
			t.Fatalf("flow %d starts at non-leaf %d", f.ID, f.Src())
		}
	}
	// Density target roughly met: load within [target, target+one flow].
	capacity := 100.0 * float64(tr.G.NumEdges())
	load := RawDemand(flows)
	if load < 0.5*capacity {
		t.Fatalf("load %v below 0.5 capacity %v", load, 0.5*capacity)
	}
}

func TestTreeFlowsDensityMonotone(t *testing.T) {
	tr := testTree(t)
	lo := TreeFlows(tr, GenConfig{Density: 0.3, Seed: 3})
	hi := TreeFlows(tr, GenConfig{Density: 0.8, Seed: 3})
	if RawDemand(lo) >= RawDemand(hi) {
		t.Fatalf("demand not monotone in density: %v vs %v", RawDemand(lo), RawDemand(hi))
	}
}

func TestTreeFlowsDeterministic(t *testing.T) {
	tr := testTree(t)
	a := TreeFlows(tr, GenConfig{Density: 0.5, Seed: 3})
	b := TreeFlows(tr, GenConfig{Density: 0.5, Seed: 3})
	if len(a) != len(b) {
		t.Fatal("same seed, different workloads")
	}
	for i := range a {
		if a[i].Rate != b[i].Rate || a[i].Src() != b[i].Src() {
			t.Fatal("same seed, different workloads")
		}
	}
}

func TestTreeFlowsSingleVertex(t *testing.T) {
	g := graph.New()
	g.AddNode("r")
	tr, err := graph.NewTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if flows := TreeFlows(tr, GenConfig{Density: 0.5, Seed: 1}); len(flows) != 0 {
		t.Fatalf("single-vertex tree produced %d flows", len(flows))
	}
}

func TestGeneralFlowsProperties(t *testing.T) {
	g := topology.GeneralRandom(30, 0.8, 4)
	dsts := []graph.NodeID{0, 7, 15}
	flows := GeneralFlows(g, dsts, GenConfig{Density: 0.5, Seed: 6})
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
	if err := Validate(g, flows); err != nil {
		t.Fatal(err)
	}
	isDst := map[graph.NodeID]bool{0: true, 7: true, 15: true}
	for _, f := range flows {
		if !isDst[f.Dst()] {
			t.Fatalf("flow %d ends at non-destination %d", f.ID, f.Dst())
		}
		if isDst[f.Src()] {
			t.Fatalf("flow %d starts at a destination", f.ID)
		}
		// Paths must be shortest.
		want, err := g.ShortestPath(f.Src(), f.Dst())
		if err != nil {
			t.Fatal(err)
		}
		if f.Hops() != want.Len() {
			t.Fatalf("flow %d path length %d, shortest %d", f.ID, f.Hops(), want.Len())
		}
	}
}

func TestGeneralFlowsPanics(t *testing.T) {
	g := topology.GeneralRandom(5, 0, 1)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("no destinations", func() { GeneralFlows(g, nil, GenConfig{Density: 0.1}) })
	mustPanic("all destinations", func() {
		GeneralFlows(g, []graph.NodeID{0, 1, 2, 3, 4}, GenConfig{Density: 0.1})
	})
}

func TestMergeSameSource(t *testing.T) {
	p1 := graph.Path{3, 1, 0}
	p2 := graph.Path{4, 1, 0}
	flows := []Flow{
		{ID: 0, Rate: 2, Path: p1},
		{ID: 1, Rate: 3, Path: p1},
		{ID: 2, Rate: 1, Path: p2},
		{ID: 3, Rate: 4, Path: p1},
	}
	merged := MergeSameSource(flows)
	if len(merged) != 2 {
		t.Fatalf("merged into %d flows, want 2", len(merged))
	}
	if merged[0].Rate != 9 || merged[1].Rate != 1 {
		t.Fatalf("merged rates = %d, %d", merged[0].Rate, merged[1].Rate)
	}
	if TotalRate(merged) != TotalRate(flows) {
		t.Fatal("merge must preserve total rate")
	}
	for i, f := range merged {
		if f.ID != i {
			t.Fatalf("IDs not renumbered: %v", merged)
		}
	}
}

func TestMergePreservesDemandOnTreeWorkload(t *testing.T) {
	tr := testTree(t)
	flows := TreeFlows(tr, GenConfig{Density: 0.6, Seed: 9})
	merged := MergeSameSource(flows)
	if RawDemand(merged) != RawDemand(flows) {
		t.Fatalf("demand changed: %v -> %v", RawDemand(flows), RawDemand(merged))
	}
	if len(merged) > len(tr.Leaves()) {
		t.Fatalf("merged %d flows exceed leaf count %d", len(merged), len(tr.Leaves()))
	}
}
