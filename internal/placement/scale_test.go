package placement

import (
	"context"
	"testing"
	"time"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// Scale smoke tests: the library must stay usable well beyond the
// paper's 22-52-vertex evaluation. These are wall-clock-bounded so a
// quadratic regression in a hot path fails loudly; the bounds widen
// under the race detector, whose instrumentation slows hot loops
// 5-10×.

// scaleBudget widens a wall-clock bound under -race.
func scaleBudget(d time.Duration) time.Duration {
	if raceEnabled {
		return 10 * d
	}
	return d
}

func TestGTPScale1000Vertices(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	g := topology.GeneralRandom(1000, 0.8, 7)
	flows := traffic.GeneralFlows(g, []graph.NodeID{0, 1, 2}, traffic.GenConfig{
		Density: 1.0, Seed: 9, MaxFlows: 5000})
	if len(flows) < 1000 {
		t.Fatalf("only %d flows generated", len(flows))
	}
	in := netsim.MustNew(g, flows, 0.5)
	start := time.Now()
	r := GTPLazy(context.Background(), in)
	elapsed := time.Since(start)
	if !r.Feasible {
		t.Fatal("infeasible at scale")
	}
	if elapsed > scaleBudget(30*time.Second) {
		t.Fatalf("lazy GTP took %v on 1000 vertices / %d flows", elapsed, len(flows))
	}
	t.Logf("1000 vertices, %d flows: %d boxes, bandwidth %.0f, %v",
		len(flows), r.Plan.Size(), r.Bandwidth, elapsed)
}

func TestTreeDPScale300Vertices(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	g := topology.RandomTree(300, 0, 7)
	tree, err := graph.NewTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist := traffic.DefaultCAIDALike()
	dist.Cap = 6
	flows := traffic.MergeSameSource(traffic.TreeFlows(tree, traffic.GenConfig{
		Density: 0.3, LinkCapacity: 10, Dist: dist, Seed: 4}))
	in := netsim.MustNew(g, flows, 0.5)
	start := time.Now()
	r, err := TreeDP(context.Background(), in, tree, 12)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("infeasible at scale")
	}
	if elapsed > scaleBudget(60*time.Second) {
		t.Fatalf("DP took %v on a 300-vertex tree", elapsed)
	}
	// The heuristics must agree with optimality ordering at scale too.
	h, err := HAT(context.Background(), in, tree, 12)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bandwidth < r.Bandwidth-1e-6 {
		t.Fatalf("HAT %v beat DP %v at scale", h.Bandwidth, r.Bandwidth)
	}
	t.Logf("300-vertex tree, %d merged flows, total rate %d: DP %v, HAT %.0f vs DP %.0f",
		len(flows), traffic.TotalRate(flows), elapsed, h.Bandwidth, r.Bandwidth)
}

func TestHATScale2000Leaves(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	g := topology.RandomTree(4000, 3, 11)
	tree, err := graph.NewTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var flows []traffic.Flow
	for _, leaf := range tree.Leaves() {
		flows = append(flows, traffic.Flow{
			ID: len(flows), Rate: 1 + int(leaf)%7, Path: tree.PathToRoot(leaf)})
	}
	in := netsim.MustNew(g, flows, 0.5)
	start := time.Now()
	r, err := HAT(context.Background(), in, tree, 50)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible || r.Plan.Size() > 50 {
		t.Fatalf("bad result at scale: %d boxes feasible=%v", r.Plan.Size(), r.Feasible)
	}
	if elapsed > scaleBudget(60*time.Second) {
		t.Fatalf("HAT took %v with %d leaves", elapsed, len(flows))
	}
	t.Logf("%d leaves -> 50 boxes in %v", len(flows), elapsed)
}
