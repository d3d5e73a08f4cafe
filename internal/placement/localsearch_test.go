package placement

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/paperfix"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

func TestLocalSearchNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		g := topology.GeneralRandom(6+rng.Intn(15), 0.7, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.5, Seed: rng.Int63(), MaxFlows: 20})
		if len(flows) == 0 {
			continue
		}
		in := netsim.MustNew(g, flows, 0.5)
		seed, err := GTPBudget(context.Background(), in, 2+rng.Intn(4))
		if err != nil {
			continue
		}
		refined := LocalSearch(context.Background(), in, seed.Plan, 0)
		if refined.Bandwidth > seed.Bandwidth+1e-9 {
			t.Fatalf("trial %d: local search worsened %v -> %v", trial, seed.Bandwidth, refined.Bandwidth)
		}
		if !refined.Feasible {
			t.Fatalf("trial %d: refined plan infeasible", trial)
		}
		if refined.Plan.Size() != seed.Plan.Size() {
			t.Fatalf("trial %d: plan size changed %d -> %d", trial, seed.Plan.Size(), refined.Plan.Size())
		}
	}
}

func TestLocalSearchFixesBadSeed(t *testing.T) {
	in := fig1Instance(t)
	// A deliberately poor feasible seed: both boxes at destinations.
	seed := netsim.NewPlan(paperfix.V(1), paperfix.V(2))
	if got := in.TotalBandwidth(seed); got != 16 {
		t.Fatalf("seed bandwidth = %v, want 16", got)
	}
	refined := LocalSearch(context.Background(), in, seed, 0)
	// The k=2 optimum is 12 ({v2, v5}).
	if refined.Bandwidth != 12 {
		t.Fatalf("refined bandwidth = %v, want 12", refined.Bandwidth)
	}
}

func TestLocalSearchRespectsFeasibility(t *testing.T) {
	in := fig1Instance(t)
	// Infeasible seed: returned as-is (scored, not "improved").
	seed := netsim.NewPlan(paperfix.V(5))
	r := LocalSearch(context.Background(), in, seed, 0)
	if r.Feasible {
		t.Fatal("infeasible seed laundered into feasible result")
	}
	if r.Plan.String() != seed.String() {
		t.Fatalf("infeasible seed mutated: %v", r.Plan)
	}
}

func TestLocalSearchAtOptimumIsStable(t *testing.T) {
	in := fig1Instance(t)
	opt := netsim.NewPlan(paperfix.V(4), paperfix.V(5), paperfix.V(6))
	r := LocalSearch(context.Background(), in, opt, 0)
	if r.Bandwidth != 8 || r.Plan.String() != opt.String() {
		t.Fatalf("optimum destabilized: %+v", r)
	}
}

// On trees the swap pass closes part of the greedy/optimal gap: the
// refined result sits between DP and the raw greedy, in aggregate.
func TestLocalSearchClosesGapOnTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sumSeed, sumRefined, sumOpt float64
	runs := 0
	for trial := 0; trial < 25; trial++ {
		in, tree := randomTreeInstance(rng, 5+rng.Intn(10))
		if in.NumFlows() == 0 {
			continue
		}
		k := 2 + rng.Intn(3)
		seed, err := GTPBudget(context.Background(), in, k)
		if err != nil {
			continue
		}
		refined := LocalSearch(context.Background(), in, seed.Plan, 0)
		opt, err := TreeDP(context.Background(), in, tree, k)
		if err != nil {
			t.Fatal(err)
		}
		if refined.Bandwidth < opt.Bandwidth-1e-9 {
			t.Fatalf("trial %d: local search (%v) beat the optimum (%v)", trial, refined.Bandwidth, opt.Bandwidth)
		}
		sumSeed += seed.Bandwidth
		sumRefined += refined.Bandwidth
		sumOpt += opt.Bandwidth
		runs++
	}
	if runs < 10 {
		t.Fatalf("only %d runs", runs)
	}
	if sumRefined > sumSeed {
		t.Fatalf("refinement worsened in aggregate: %v > %v", sumRefined, sumSeed)
	}
	if sumOpt > sumRefined+1e-9 {
		t.Fatalf("optimum above refined? %v > %v", sumOpt, sumRefined)
	}
}

// localSearchRef is the straightforward O(V·F)-per-probe reference the
// evaluator-based LocalSearch must match exactly.
func localSearchRef(in *netsim.Instance, seed netsim.Plan, maxRounds int) Result {
	cur := seed.Clone()
	curBW := in.TotalBandwidth(cur)
	if !in.Feasible(cur) {
		return finish(in, cur)
	}
	if maxRounds <= 0 {
		maxRounds = 64
	}
	n := in.G.NumNodes()
	for round := 0; round < maxRounds; round++ {
		improved := false
		for _, out := range cur.Vertices() {
			bestIn := graph.Invalid
			bestBW := curBW
			for v := graph.NodeID(0); int(v) < n; v++ {
				if cur.Has(v) {
					continue
				}
				cand := cur.Clone()
				cand.Remove(out)
				cand.Add(v)
				if !in.Feasible(cand) {
					continue
				}
				if bw := in.TotalBandwidth(cand); bw < bestBW-1e-12 {
					bestBW = bw
					bestIn = v
				}
			}
			if bestIn != graph.Invalid {
				cur.Remove(out)
				cur.Add(bestIn)
				curBW = bestBW
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return finish(in, cur)
}

// The incremental-evaluator implementation must match the reference
// implementation plan-for-plan.
func TestLocalSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		g := topology.GeneralRandom(6+rng.Intn(14), 0.7, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.5, Seed: rng.Int63(), MaxFlows: 18})
		if len(flows) == 0 {
			continue
		}
		in := netsim.MustNew(g, flows, 0.5)
		seed, err := GTPBudget(context.Background(), in, 2+rng.Intn(4))
		if err != nil {
			continue
		}
		fast := LocalSearch(context.Background(), in, seed.Plan, 0)
		ref := localSearchRef(in, seed.Plan, 0)
		if fast.Plan.String() != ref.Plan.String() {
			t.Fatalf("trial %d: fast plan %v != reference %v", trial, fast.Plan, ref.Plan)
		}
		if math.Abs(fast.Bandwidth-ref.Bandwidth) > 1e-9 {
			t.Fatalf("trial %d: fast %v != reference %v", trial, fast.Bandwidth, ref.Bandwidth)
		}
	}
}

func BenchmarkLocalSearchIncrementalVsReference(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := topology.GeneralRandom(80, 0.8, 7)
	flows := traffic.GeneralFlows(g, []graph.NodeID{0, 1}, traffic.GenConfig{
		Density: 0.6, Seed: 9, MaxFlows: 200})
	in := netsim.MustNew(g, flows, 0.5)
	seed, err := GTPBudget(context.Background(), in, 12)
	if err != nil {
		b.Skip("no feasible seed")
	}
	_ = rng
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LocalSearch(context.Background(), in, seed.Plan, 0)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			localSearchRef(in, seed.Plan, 0)
		}
	})
}

func TestGTPWithLocalSearchPipeline(t *testing.T) {
	in := fig1Instance(t)
	r, err := GTPWithLocalSearch(context.Background(), in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bandwidth != 12 || !r.Feasible {
		t.Fatalf("pipeline k=2: %+v", r)
	}
	if _, err := GTPWithLocalSearch(context.Background(), in, 1); err == nil {
		t.Fatal("infeasible budget accepted")
	}
}

func TestMultiStartLocalSearch(t *testing.T) {
	in := fig1Instance(t)
	rng := rand.New(rand.NewSource(9))
	one, err := MultiStartLocalSearch(context.Background(), in, 3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	many, err := MultiStartLocalSearch(context.Background(), in, 3, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if many.Bandwidth > one.Bandwidth+1e-9 {
		t.Fatalf("more starts worsened the result: %v > %v", many.Bandwidth, one.Bandwidth)
	}
	if !many.Feasible || many.Plan.Size() > 3 {
		t.Fatalf("invalid result %+v", many)
	}
	// Fig. 1's k=3 optimum is 8; multi-start should find it.
	if many.Bandwidth != 8 {
		t.Fatalf("bandwidth = %v, want 8", many.Bandwidth)
	}
	if _, err := MultiStartLocalSearch(context.Background(), in, 3, 0, rng); err == nil {
		t.Fatal("starts=0 accepted")
	}
}
