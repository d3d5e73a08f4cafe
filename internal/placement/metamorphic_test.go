package placement

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/stats"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// Metamorphic properties: transformations of an instance with a known
// effect on the optimum. These catch classes of bugs the example-based
// tests cannot (ID-dependent behaviour, scale dependence, λ handling).

// relabel permutes vertex IDs of an instance and returns the permuted
// instance plus the permutation.
func relabel(in *netsim.Instance, rng *rand.Rand) (*netsim.Instance, []graph.NodeID) {
	n := in.G.NumNodes()
	perm := make([]graph.NodeID, n)
	for i, x := range rng.Perm(n) {
		perm[i] = graph.NodeID(x)
	}
	g2 := graph.New()
	names := make([]string, n)
	for v := 0; v < n; v++ {
		names[perm[v]] = in.G.Name(graph.NodeID(v))
	}
	for _, name := range names {
		g2.AddNode(name)
	}
	for _, e := range in.G.Edges() {
		g2.AddEdge(perm[e.From], perm[e.To])
	}
	flows2 := make([]traffic.Flow, in.NumFlows())
	for i, f := range in.Flows() {
		p2 := make(graph.Path, len(f.Path))
		for j, v := range f.Path {
			p2[j] = perm[v]
		}
		flows2[i] = traffic.Flow{ID: f.ID, Rate: f.Rate, Path: p2}
	}
	return netsim.MustNew(g2, flows2, in.Lambda), perm
}

// Relabeling vertices must not change the optimal bandwidth.
func TestMetamorphicRelabelInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 15; trial++ {
		g := topology.GeneralRandom(5+rng.Intn(8), 0.6, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.4, Seed: rng.Int63(), MaxFlows: 10})
		if len(flows) == 0 {
			continue
		}
		in := netsim.MustNew(g, flows, 0.5)
		in2, _ := relabel(in, rng)
		for k := 2; k <= 4; k++ {
			a, errA := Exhaustive(context.Background(), in, k)
			b, errB := Exhaustive(context.Background(), in2, k)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("trial %d k=%d: feasibility changed under relabeling", trial, k)
			}
			if errA != nil {
				continue
			}
			if math.Abs(a.Bandwidth-b.Bandwidth) > 1e-9 {
				t.Fatalf("trial %d k=%d: optimum changed under relabeling: %v vs %v",
					trial, k, a.Bandwidth, b.Bandwidth)
			}
		}
	}
}

// Scaling every rate by c scales every algorithm's bandwidth by c.
func TestMetamorphicRateScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 15; trial++ {
		g := topology.RandomTree(5+rng.Intn(10), 0, rng.Int63())
		tree, err := graph.NewTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		flows := traffic.TreeFlows(tree, traffic.GenConfig{
			Density: 0.4, Dist: traffic.Uniform{Lo: 1, Hi: 4}, Seed: rng.Int63(), MaxFlows: 8})
		if len(flows) == 0 {
			continue
		}
		const c = 3
		scaled := make([]traffic.Flow, len(flows))
		for i, f := range flows {
			scaled[i] = traffic.Flow{ID: f.ID, Rate: c * f.Rate, Path: f.Path}
		}
		in := netsim.MustNew(g, flows, 0.5)
		inScaled := netsim.MustNew(g, scaled, 0.5)
		k := 2 + rng.Intn(3)
		a, errA := TreeDP(context.Background(), in, tree, k)
		b, errB := TreeDP(context.Background(), inScaled, tree, k)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: feasibility changed under scaling", trial)
		}
		if errA != nil {
			continue
		}
		if math.Abs(b.Bandwidth-c*a.Bandwidth) > 1e-9 {
			t.Fatalf("trial %d: scaled optimum %v != %d × %v", trial, b.Bandwidth, c, a.Bandwidth)
		}
	}
}

// For a fixed plan, bandwidth is non-decreasing in λ (less traffic is
// removed), and linear interpolation holds exactly:
// b_λ(P) = raw − (1−λ)·(raw − b_0(P)).
func TestMetamorphicLambdaInterpolation(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 15; trial++ {
		g := topology.GeneralRandom(6+rng.Intn(10), 0.6, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.4, Seed: rng.Int63(), MaxFlows: 12})
		if len(flows) == 0 {
			continue
		}
		plan := netsim.NewPlan()
		for _, v := range g.Nodes() {
			if rng.Intn(3) == 0 {
				plan.Add(v)
			}
		}
		in0 := netsim.MustNew(g, flows, 0)
		b0 := in0.TotalBandwidth(plan)
		raw := in0.RawDemand()
		prev := -1.0
		for _, lambda := range []float64{0, 0.25, 0.5, 0.75, 1} {
			inL := netsim.MustNew(g, flows, lambda)
			bL := inL.TotalBandwidth(plan)
			if bL < prev-1e-9 {
				t.Fatalf("trial %d: bandwidth fell as λ grew", trial)
			}
			prev = bL
			want := raw - (1-lambda)*(raw-b0)
			if math.Abs(bL-want) > 1e-9 {
				t.Fatalf("trial %d λ=%v: b=%v, interpolation says %v", trial, lambda, bL, want)
			}
		}
		// At λ=1 the plan is irrelevant: bandwidth equals raw demand.
		in1 := netsim.MustNew(g, flows, 1)
		if math.Abs(in1.TotalBandwidth(plan)-raw) > 1e-9 {
			t.Fatalf("trial %d: λ=1 bandwidth differs from raw demand", trial)
		}
	}
}

// Duplicating a flow doubles its contribution: the optimum of the
// doubled instance equals the optimum of the instance with that flow's
// rate doubled (for tree DP, where rates are integral).
func TestMetamorphicDuplicateEqualsDoubleRate(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 10; trial++ {
		g := topology.RandomTree(4+rng.Intn(8), 0, rng.Int63())
		tree, err := graph.NewTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		flows := traffic.TreeFlows(tree, traffic.GenConfig{
			Density: 0.3, Dist: traffic.Uniform{Lo: 1, Hi: 3}, Seed: rng.Int63(), MaxFlows: 6})
		if len(flows) == 0 {
			continue
		}
		pick := rng.Intn(len(flows))
		dup := append(append([]traffic.Flow{}, flows...), traffic.Flow{
			ID: len(flows), Rate: flows[pick].Rate, Path: flows[pick].Path})
		doubled := make([]traffic.Flow, len(flows))
		copy(doubled, flows)
		doubled[pick].Rate *= 2
		inDup := netsim.MustNew(g, dup, 0.5)
		inDbl := netsim.MustNew(g, doubled, 0.5)
		k := 1 + rng.Intn(3)
		a, errA := TreeDP(context.Background(), inDup, tree, k)
		b, errB := TreeDP(context.Background(), inDbl, tree, k)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: feasibility mismatch", trial)
		}
		if errA != nil {
			continue
		}
		if math.Abs(a.Bandwidth-b.Bandwidth) > 1e-9 {
			t.Fatalf("trial %d: duplicate (%v) != doubled (%v)", trial, a.Bandwidth, b.Bandwidth)
		}
	}
}

// Shuffling the flows must not change any greedy's plan or the bits of
// its objective. The solvers score path classes with exact integer
// sums, so no decision depends on flow order; flows on repeated paths
// (three hubs, many flows per source) exercise the class aggregation.
// The objective compared bit for bit is State.Bandwidth, raw demand
// minus (1−λ) times the exact decrement sum. Result.Bandwidth sums
// per-flow floats in flow order, so a shuffle may move its last bits;
// it must agree to rounding.
func TestMetamorphicFlowPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	solvers := []string{"gtp", "gtp-lazy", "gtp-ls", "best-effort"}
	for trial := 0; trial < 300; trial++ {
		g := topology.GeneralRandom(8+rng.Intn(16), 0.5, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0, 1, 2}, traffic.GenConfig{
			Density: 1e9, Seed: rng.Int63(), MaxFlows: 10 + rng.Intn(60)})
		if len(flows) == 0 {
			continue
		}
		shuffled := append([]traffic.Flow(nil), flows...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		k := 3 + rng.Intn(6)
		for _, lambda := range []float64{0.1, 0.3, 0.7, 0.9} {
			in := netsim.MustNew(g, flows, lambda)
			inShuffled := netsim.MustNew(g, shuffled, lambda)
			for _, name := range solvers {
				opts := Options{K: k}
				if name == "gtp-lazy" {
					opts.K = 0
				}
				a, errA := Solve(context.Background(), name, in, opts)
				b, errB := Solve(context.Background(), name, inShuffled, opts)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("trial %d λ=%v %s: error changed under flow shuffle: %v vs %v", trial, lambda, name, errA, errB)
				}
				if errA != nil {
					continue
				}
				if a.Plan.String() != b.Plan.String() {
					t.Fatalf("trial %d λ=%v %s: plan %v became %v under flow shuffle", trial, lambda, name, a.Plan, b.Plan)
				}
				exactA := netsim.NewState(in, a.Plan).Bandwidth()
				exactB := netsim.NewState(inShuffled, b.Plan).Bandwidth()
				if math.Float64bits(exactA) != math.Float64bits(exactB) {
					t.Fatalf("trial %d λ=%v %s: objective %v became %v under flow shuffle", trial, lambda, name, exactA, exactB)
				}
				if !stats.ApproxEqual(a.Bandwidth, b.Bandwidth, 1e-12) {
					t.Fatalf("trial %d λ=%v %s: bandwidth %v became %v under flow shuffle", trial, lambda, name, a.Bandwidth, b.Bandwidth)
				}
			}
		}
	}
}
