package resilience

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/paperfix"
	"tdmd/internal/placement"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

func fig1(t *testing.T) *netsim.Instance {
	t.Helper()
	g, flows, lambda := paperfix.Fig1()
	return netsim.MustNew(g, flows, lambda)
}

func TestDegradeFig1(t *testing.T) {
	in := fig1(t)
	p := netsim.NewPlan(paperfix.V(4), paperfix.V(5), paperfix.V(6))
	// Failing v5 strands f1 entirely (no other box on its path):
	// 1 unserved flow, bandwidth rises from 8 by f1's lost saving 4.
	imp, err := Degrade(in, p, paperfix.V(5))
	if err != nil {
		t.Fatal(err)
	}
	if imp.UnservedFlows != 1 {
		t.Fatalf("unserved = %d, want 1", imp.UnservedFlows)
	}
	if imp.BandwidthDelta != 4 {
		t.Fatalf("delta = %v, want 4", imp.BandwidthDelta)
	}
	// Failing v6 strands f2 and f3.
	imp6, err := Degrade(in, p, paperfix.V(6))
	if err != nil {
		t.Fatal(err)
	}
	if imp6.UnservedFlows != 2 || imp6.BandwidthDelta != 3 {
		t.Fatalf("v6 impact = %+v", imp6)
	}
}

func TestDegradeRejectsNonDeployed(t *testing.T) {
	in := fig1(t)
	p := netsim.NewPlan(paperfix.V(5))
	if _, err := Degrade(in, p, paperfix.V(1)); err == nil {
		t.Fatal("non-deployed vertex accepted")
	}
}

func TestRankingOrder(t *testing.T) {
	in := fig1(t)
	p := netsim.NewPlan(paperfix.V(4), paperfix.V(5), paperfix.V(6))
	ranking := Ranking(in, p)
	if len(ranking) != 3 {
		t.Fatalf("ranking size = %d", len(ranking))
	}
	// v6 (2 unserved) > v5 (1 unserved, delta 4) > v4 (1 unserved, delta 1).
	if ranking[0].Failed != paperfix.V(6) {
		t.Fatalf("most critical = %v, want v6", ranking[0].Failed)
	}
	if ranking[1].Failed != paperfix.V(5) || ranking[2].Failed != paperfix.V(4) {
		t.Fatalf("ranking = %+v", ranking)
	}
}

func TestRepairRestoresFeasibility(t *testing.T) {
	in := fig1(t)
	p := netsim.NewPlan(paperfix.V(4), paperfix.V(5), paperfix.V(6))
	r, err := Repair(context.Background(), in, p, paperfix.V(6), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("repair left flows unserved")
	}
	if r.Plan.Has(paperfix.V(6)) {
		t.Fatal("repair reused the failed vertex")
	}
	if r.Plan.Size() > 3 {
		t.Fatalf("repair exceeded budget: %v", r.Plan)
	}
	// Best replacement for v6 serves f2 and f3: v3 saves f2 one hop
	// (gain 1); bandwidth = 8 + 4 - ... verify against model directly.
	if got := in.TotalBandwidth(r.Plan); math.Abs(got-r.Bandwidth) > 1e-9 {
		t.Fatalf("reported %v != model %v", r.Bandwidth, got)
	}
}

func TestRepairInfeasibleWithoutBudget(t *testing.T) {
	// A path a -> b with a single flow: only a and b can serve it. If
	// the box at a fails and the budget is already consumed by... use
	// k=1 and ban a: repair must place at b.
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, b)
	flows := []traffic.Flow{{ID: 0, Rate: 2, Path: graph.Path{a, b}}}
	in := netsim.MustNew(g, flows, 0.5)
	p := netsim.NewPlan(a)
	r, err := Repair(context.Background(), in, p, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Plan.Has(b) || r.Plan.Size() != 1 {
		t.Fatalf("repair plan = %v, want {b}", r.Plan)
	}
	// Now a two-flow instance where the failed vertex is the only
	// coverage option: repair must fail.
	g2 := graph.New()
	x, y, z := g2.AddNode("x"), g2.AddNode("y"), g2.AddNode("z")
	g2.AddEdge(x, y)
	g2.AddEdge(y, z)
	flows2 := []traffic.Flow{
		{ID: 0, Rate: 1, Path: graph.Path{x, y}},
		{ID: 1, Rate: 1, Path: graph.Path{y, z}},
	}
	in2 := netsim.MustNew(g2, flows2, 0.5)
	p2 := netsim.NewPlan(y)
	if _, err := Repair(context.Background(), in2, p2, y, 1); err == nil {
		t.Fatal("unrepairable failure accepted")
	}
}

// Property: on random instances, every repair is feasible when GTP
// itself can solve the instance without the failed vertex, and the
// repaired bandwidth is never below the full-budget optimum.
func TestRepairRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 20; trial++ {
		g := topology.GeneralRandom(6+rng.Intn(10), 0.7, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.5, Seed: rng.Int63(), MaxFlows: 12})
		if len(flows) == 0 {
			continue
		}
		in := netsim.MustNew(g, flows, 0.5)
		k := 3 + rng.Intn(3)
		seed, err := placement.GTPBudget(context.Background(), in, k)
		if err != nil {
			continue
		}
		for _, failed := range seed.Plan.Vertices() {
			r, err := Repair(context.Background(), in, seed.Plan, failed, k)
			if err != nil {
				continue // genuinely unrepairable without that vertex
			}
			if !r.Feasible || r.Plan.Has(failed) || r.Plan.Size() > k {
				t.Fatalf("trial %d: bad repair %+v", trial, r)
			}
			opt, optErr := placement.Exhaustive(context.Background(), in, k)
			if optErr == nil && r.Bandwidth < opt.Bandwidth-1e-9 {
				t.Fatalf("trial %d: repair beat the unconstrained optimum", trial)
			}
		}
	}
}
