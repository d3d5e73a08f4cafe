package placement

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/paperfix"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

func TestBranchAndBoundFig1(t *testing.T) {
	in := fig1Instance(t)
	for k, want := range map[int]float64{2: 12, 3: 8} {
		r, err := BranchAndBound(context.Background(), in, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !r.Optimal {
			t.Fatalf("k=%d: search not exhausted", k)
		}
		if r.Bandwidth != want {
			t.Fatalf("k=%d: bandwidth %v, want %v", k, r.Bandwidth, want)
		}
	}
	if _, err := BranchAndBound(context.Background(), in, 1); err == nil {
		t.Fatal("k=1 should be infeasible on Fig. 1")
	}
	if _, err := BranchAndBound(context.Background(), in, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestBranchAndBoundRejectsExpanding(t *testing.T) {
	g, flows, _ := paperfix.Fig1()
	in := netsim.MustNew(g, flows, 1.5)
	if _, err := BranchAndBound(context.Background(), in, 3); err == nil {
		t.Fatal("expanding instance accepted")
	}
}

// The core correctness property: B&B matches exhaustive enumeration on
// random small instances, exactly.
func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		g := topology.GeneralRandom(5+rng.Intn(10), 0.7, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.5, Seed: rng.Int63(), MaxFlows: 14})
		if len(flows) == 0 {
			continue
		}
		in := netsim.MustNew(g, flows, float64(rng.Intn(10))/10)
		for k := 1; k <= 4; k++ {
			bb, errB := BranchAndBound(context.Background(), in, k)
			ex, errE := Exhaustive(context.Background(), in, k)
			if (errB == nil) != (errE == nil) {
				t.Fatalf("trial %d k=%d: feasibility mismatch: %v vs %v", trial, k, errB, errE)
			}
			if errB != nil {
				continue
			}
			if !bb.Optimal {
				t.Fatalf("trial %d k=%d: not exact on a tiny instance", trial, k)
			}
			if math.Abs(bb.Bandwidth-ex.Bandwidth) > 1e-9 {
				t.Fatalf("trial %d k=%d: B&B %v != exhaustive %v", trial, k, bb.Bandwidth, ex.Bandwidth)
			}
		}
	}
}

// The point of B&B: exact optima at the paper's evaluation scale,
// certifying the DP on trees and bounding GTP/HAT gaps.
func TestBranchAndBoundAtEvaluationScale(t *testing.T) {
	if testing.Short() {
		t.Skip("exact search at scale")
	}
	// Tree at the paper's default size: B&B must agree with the DP.
	g := topology.RandomTree(22, 0, 7)
	tree, err := graph.NewTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist := traffic.DefaultCAIDALike()
	dist.Cap = 12
	flows := traffic.MergeSameSource(traffic.TreeFlows(tree, traffic.GenConfig{
		Density: 0.5, LinkCapacity: 40, Dist: dist, Seed: 5}))
	in := netsim.MustNew(g, flows, 0.5)
	dp, err := TreeDP(context.Background(), in, tree, 8)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := BranchAndBound(context.Background(), in, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bb.Optimal {
		t.Skipf("search did not finish within the 30 s cap; incumbent %v", bb.Bandwidth)
	}
	if math.Abs(bb.Bandwidth-dp.Bandwidth) > 1e-9 {
		t.Fatalf("B&B %v != tree DP %v at evaluation scale", bb.Bandwidth, dp.Bandwidth)
	}
	t.Logf("22-vertex tree: optimum %v certified", bb.Bandwidth)
}

func TestBranchAndBoundTimeoutReturnsIncumbent(t *testing.T) {
	g := topology.GeneralRandom(40, 0.9, 3)
	flows := traffic.GeneralFlows(g, []graph.NodeID{0, 1}, traffic.GenConfig{
		Density: 0.8, Seed: 4, MaxFlows: 120})
	in := netsim.MustNew(g, flows, 0.5)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	r, err := BranchAndBound(ctx, in, 10)
	if err != nil {
		t.Skip("greedy seed infeasible; nothing to assert")
	}
	if !r.Feasible {
		t.Fatal("incumbent infeasible")
	}
	// Either it finished very fast or it reports inexactness.
	gtp, err := GTPBudget(context.Background(), in, 10)
	if err == nil && r.Bandwidth > gtp.Bandwidth+1e-9 {
		t.Fatalf("incumbent %v worse than its greedy seed %v", r.Bandwidth, gtp.Bandwidth)
	}
}
