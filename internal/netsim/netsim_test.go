package netsim

import (
	"math"
	"math/rand"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/paperfix"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

func fig1(t *testing.T) *Instance {
	t.Helper()
	g, flows, lambda := paperfix.Fig1()
	return MustNew(g, flows, lambda)
}

func TestNewRejectsBadLambda(t *testing.T) {
	g, flows, _ := paperfix.Fig1()
	if _, err := New(g, flows, -0.1); err == nil {
		t.Fatal("negative lambda accepted")
	}
	// λ > 1 models traffic-expanding middleboxes and is accepted.
	if _, err := New(g, flows, 1.5); err != nil {
		t.Fatalf("expanding lambda rejected: %v", err)
	}
}

func TestAllocateExpandingNearestDestination(t *testing.T) {
	g, flows, _ := paperfix.Fig1()
	in := MustNew(g, flows, 2.0) // expanding: allocation flips
	// Middleboxes on v3 and v5: f1 (v5->v3->v1) must now use v3, the
	// deployed vertex nearest its destination.
	p := NewPlan(paperfix.V(3), paperfix.V(5))
	alloc := in.Allocate(p)
	if alloc[0] != paperfix.V(3) {
		t.Fatalf("expanding f1 served at %d, want v3", alloc[0])
	}
	// b(f1) = 4·(2 − (1−2)·1) = 12 > raw 8: expansion costs bandwidth.
	if got := in.FlowBandwidth(0, alloc[0]); got != 12 {
		t.Fatalf("expanding b(f1) = %v, want 12", got)
	}
	// Serving at v5 (source) would cost 4·(2+2) = 16: the allocation
	// picked the cheaper vertex.
	if got := in.FlowBandwidth(0, paperfix.V(5)); got != 16 {
		t.Fatalf("b(f1@v5) = %v, want 16", got)
	}
}

func TestExpandingMarginalDecrementMatchesDefinition(t *testing.T) {
	g, flows, _ := paperfix.Fig1()
	in := MustNew(g, flows, 1.5)
	for _, base := range []Plan{NewPlan(), NewPlan(paperfix.V(2)), NewPlan(paperfix.V(3), paperfix.V(5))} {
		alloc := in.Allocate(base)
		d0 := in.Decrement(base)
		for _, v := range g.Nodes() {
			if base.Has(v) {
				continue
			}
			pv := base.Clone()
			pv.Add(v)
			want := in.Decrement(pv) - d0
			got := in.MarginalDecrement(base, alloc, v)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("plan %v vertex %d: marginal %v, definition %v", base, v, got, want)
			}
		}
	}
}

func TestExpandingLinkLoadsMatchClosedForm(t *testing.T) {
	g, flows, _ := paperfix.Fig1()
	in := MustNew(g, flows, 2.5)
	for _, p := range []Plan{
		NewPlan(paperfix.V(2), paperfix.V(5)),
		NewPlan(paperfix.V(1), paperfix.V(2)),
	} {
		closed := in.TotalBandwidth(p)
		sim := SumLoads(in.LinkLoads(p))
		if math.Abs(closed-sim) > 1e-9 {
			t.Fatalf("plan %v: closed %v != simulated %v", p, closed, sim)
		}
	}
}

func TestNewRejectsInvalidFlows(t *testing.T) {
	g, flows, _ := paperfix.Fig1()
	flows[0].Rate = 0
	if _, err := New(g, flows, 0.5); err == nil {
		t.Fatal("invalid flow accepted")
	}
}

func TestRawDemandFig1(t *testing.T) {
	in := fig1(t)
	// Σ r|p| = 4·2 + 2·2 + 2·1 + 2·1 = 16.
	if in.RawDemand() != 16 {
		t.Fatalf("RawDemand = %v, want 16", in.RawDemand())
	}
}

func TestPlanBasics(t *testing.T) {
	p := NewPlan(3, 1)
	if p.Size() != 2 || !p.Has(3) || p.Has(0) {
		t.Fatalf("plan basics broken: %v", p)
	}
	p.Add(0)
	p.Add(0) // idempotent
	if p.Size() != 3 {
		t.Fatalf("Size = %d", p.Size())
	}
	p.Remove(1)
	if p.Has(1) || p.Size() != 2 {
		t.Fatal("Remove broken")
	}
	vs := p.Vertices()
	if len(vs) != 2 || vs[0] != 0 || vs[1] != 3 {
		t.Fatalf("Vertices = %v", vs)
	}
	c := p.Clone()
	c.Add(5)
	if p.Has(5) {
		t.Fatal("Clone aliases original")
	}
	if p.String() != "{0, 3}" {
		t.Fatalf("String = %q", p.String())
	}
	var zero Plan
	zero.Add(7)
	if !zero.Has(7) {
		t.Fatal("zero-value Plan must accept Add")
	}
}

func TestAllocateNearestSource(t *testing.T) {
	in := fig1(t)
	// Middleboxes on v3 and v5: f1 must use v5 (its source), not v3.
	p := NewPlan(paperfix.V(3), paperfix.V(5))
	alloc := in.Allocate(p)
	if alloc[0] != paperfix.V(5) {
		t.Fatalf("f1 served at %d, want v5", alloc[0])
	}
	// f2 (v6->v3->v2) uses v3; f3, f4 unserved.
	if alloc[1] != paperfix.V(3) {
		t.Fatalf("f2 served at %d, want v3", alloc[1])
	}
	if alloc[2] != Unserved || alloc[3] != Unserved {
		t.Fatalf("f3/f4 should be unserved: %v", alloc)
	}
	if in.Feasible(p) {
		t.Fatal("plan missing f3/f4 reported feasible")
	}
}

func TestFig1OptimalPlansBandwidth(t *testing.T) {
	in := fig1(t)
	// Paper: with k=2, P = {v2, v5} consumes 12.
	two := NewPlan(paperfix.V(2), paperfix.V(5))
	if !in.Feasible(two) {
		t.Fatal("{v2, v5} must be feasible")
	}
	if got := in.TotalBandwidth(two); got != 12 {
		t.Fatalf("b({v2,v5}) = %v, want 12", got)
	}
	// With k=3, P = {v4, v5, v6} consumes 8 (the minimum).
	three := NewPlan(paperfix.V(4), paperfix.V(5), paperfix.V(6))
	if got := in.TotalBandwidth(three); got != 8 {
		t.Fatalf("b({v4,v5,v6}) = %v, want 8", got)
	}
	// Decrements: 16-12 = 4 and 16-8 = 8.
	if got := in.Decrement(two); got != 4 {
		t.Fatalf("d({v2,v5}) = %v, want 4", got)
	}
	if got := in.Decrement(three); got != 8 {
		t.Fatalf("d({v4,v5,v6}) = %v, want 8", got)
	}
}

func TestTable2MarginalDecrements(t *testing.T) {
	in := fig1(t)
	check := func(p Plan, want map[int]float64) {
		t.Helper()
		alloc := in.Allocate(p)
		for vn, w := range want {
			if got := in.MarginalDecrement(p, alloc, paperfix.V(vn)); got != w {
				t.Fatalf("d_%v(v%d) = %v, want %v", p, vn, got, w)
			}
		}
	}
	// Row 1: d_∅(v).
	check(NewPlan(), map[int]float64{1: 0, 2: 0, 3: 3, 4: 1, 5: 4, 6: 3})
	// Row 2: d_{v5}(v).
	check(NewPlan(paperfix.V(5)), map[int]float64{1: 0, 2: 0, 3: 1, 4: 1, 6: 3})
	// Row 3: d_{v5,v6}(v).
	check(NewPlan(paperfix.V(5), paperfix.V(6)), map[int]float64{1: 0, 2: 0, 3: 0, 4: 1})
}

func TestMarginalDecrementOfDeployedVertexIsZero(t *testing.T) {
	in := fig1(t)
	p := NewPlan(paperfix.V(5))
	alloc := in.Allocate(p)
	if got := in.MarginalDecrement(p, alloc, paperfix.V(5)); got != 0 {
		t.Fatalf("marginal of deployed vertex = %v", got)
	}
}

func TestLemma1Bounds(t *testing.T) {
	in := fig1(t)
	// d(∅) = 0.
	if got := in.Decrement(NewPlan()); got != 0 {
		t.Fatalf("d(∅) = %v", got)
	}
	// d(V) = (1-λ)·Σ r|p| = 0.5·16 = 8.
	all := NewPlan()
	for _, v := range in.G.Nodes() {
		all.Add(v)
	}
	if got := in.Decrement(all); got != 8 {
		t.Fatalf("d(V) = %v, want 8", got)
	}
	// b(V) = λ·Σ r|p| = 8.
	if got := in.TotalBandwidth(all); got != 8 {
		t.Fatalf("b(V) = %v, want 8", got)
	}
}

func TestFlowBandwidthFormula(t *testing.T) {
	in := fig1(t)
	// f1 unserved: 4·2 = 8.
	if got := in.FlowBandwidth(0, Unserved); got != 8 {
		t.Fatalf("unserved b(f1) = %v", got)
	}
	// f1 at v5 (l=2): 8 - 4·0.5·2 = 4.
	if got := in.FlowBandwidth(0, paperfix.V(5)); got != 4 {
		t.Fatalf("b(f1@v5) = %v", got)
	}
	// f1 at v3 (l=1): 8 - 4·0.5·1 = 6.
	if got := in.FlowBandwidth(0, paperfix.V(3)); got != 6 {
		t.Fatalf("b(f1@v3) = %v", got)
	}
	// f1 at its destination v1 (l=0): 8.
	if got := in.FlowBandwidth(0, paperfix.V(1)); got != 8 {
		t.Fatalf("b(f1@v1) = %v", got)
	}
}

func TestFlowBandwidthPanicsOffPath(t *testing.T) {
	in := fig1(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for off-path vertex")
		}
	}()
	in.FlowBandwidth(0, paperfix.V(4)) // v4 not on f1's path
}

func TestLinkLoadsMatchClosedFormFig1(t *testing.T) {
	in := fig1(t)
	for _, p := range []Plan{
		NewPlan(),
		NewPlan(paperfix.V(5)),
		NewPlan(paperfix.V(2), paperfix.V(5)),
		NewPlan(paperfix.V(4), paperfix.V(5), paperfix.V(6)),
	} {
		loads := in.LinkLoads(p)
		if got, want := SumLoads(loads), in.TotalBandwidth(p); math.Abs(got-want) > 1e-9 {
			t.Fatalf("plan %v: link sum %v != closed form %v", p, got, want)
		}
	}
}

func TestLinkLoadsPerEdgeFig1(t *testing.T) {
	in := fig1(t)
	p := NewPlan(paperfix.V(2), paperfix.V(5))
	loads := in.LinkLoads(p)
	// f1 processed at source v5: both its links carry 2.
	if got := loads[LinkKey{paperfix.V(5), paperfix.V(3)}]; got != 2 {
		t.Fatalf("v5->v3 load = %v, want 2", got)
	}
	if got := loads[LinkKey{paperfix.V(3), paperfix.V(1)}]; got != 2 {
		t.Fatalf("v3->v1 load = %v, want 2", got)
	}
	// f2 unprocessed until v2 (its destination): carries 2 on both hops.
	if got := loads[LinkKey{paperfix.V(6), paperfix.V(3)}]; got != 2 {
		t.Fatalf("v6->v3 load = %v, want 2", got)
	}
	if got := loads[LinkKey{paperfix.V(3), paperfix.V(2)}]; got != 2 {
		t.Fatalf("v3->v2 load = %v, want 2", got)
	}
}

func TestMaxLinkLoadAndCongestion(t *testing.T) {
	in := fig1(t)
	p := NewPlan(paperfix.V(2), paperfix.V(5))
	loads := in.LinkLoads(p)
	key, max := MaxLinkLoad(loads)
	if max <= 0 || loads[key] != max {
		t.Fatalf("max load = %v at %v, table has %v", max, key, loads[key])
	}
	for k, l := range loads {
		if l > max {
			t.Fatalf("link %v carries %v > max %v", k, l, max)
		}
	}
	var empty map[LinkKey]float64
	if _, m := MaxLinkLoad(empty); m != 0 {
		t.Fatalf("MaxLinkLoad(empty) = %v", m)
	}
}

func TestCoveredBy(t *testing.T) {
	in := fig1(t)
	cov := in.CoveredBy()
	// v3 is visited by f1 and f2.
	got := cov[paperfix.V(3)]
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("CoveredBy(v3) = %v", got)
	}
	// v2 is visited by f2, f3, f4.
	if len(cov[paperfix.V(2)]) != 3 {
		t.Fatalf("CoveredBy(v2) = %v", cov[paperfix.V(2)])
	}
}

// Property: on random tree workloads, the closed-form total always
// equals the hop-by-hop link-load simulation, for random plans.
func TestClosedFormMatchesSimulationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		g := topology.RandomTree(2+rng.Intn(30), 0, rng.Int63())
		tr, err := graph.NewTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		flows := traffic.TreeFlows(tr, traffic.GenConfig{Density: 0.5, Seed: rng.Int63()})
		if len(flows) == 0 {
			continue
		}
		lambda := float64(rng.Intn(11)) / 10
		in := MustNew(g, flows, lambda)
		p := NewPlan()
		for _, v := range g.Nodes() {
			if rng.Intn(3) == 0 {
				p.Add(v)
			}
		}
		closed := in.TotalBandwidth(p)
		sim := SumLoads(in.LinkLoads(p))
		if math.Abs(closed-sim) > 1e-9*(1+closed) {
			t.Fatalf("trial %d: closed %v != sim %v (λ=%v, plan %v)", trial, closed, sim, lambda, p)
		}
	}
}

// Property: submodularity and monotonicity of the decrement function
// (Theorem 2), tested on random instances: for P ⊆ P' and v ∉ P',
// d_P(v) >= d_P'(v), and d(P') >= d(P).
func TestDecrementSubmodularMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		g := topology.GeneralRandom(6+rng.Intn(12), 0.7, rng.Int63())
		dsts := []graph.NodeID{0}
		flows := traffic.GeneralFlows(g, dsts, traffic.GenConfig{Density: 0.4, Seed: rng.Int63(), MaxFlows: 20})
		if len(flows) == 0 {
			continue
		}
		in := MustNew(g, flows, float64(rng.Intn(10))/10)
		small := NewPlan()
		big := NewPlan()
		for _, v := range g.Nodes() {
			r := rng.Intn(4)
			if r == 0 {
				small.Add(v)
				big.Add(v)
			} else if r == 1 {
				big.Add(v)
			}
		}
		if in.Decrement(big) < in.Decrement(small)-1e-9 {
			t.Fatalf("trial %d: monotonicity violated", trial)
		}
		allocSmall := in.Allocate(small)
		allocBig := in.Allocate(big)
		for _, v := range g.Nodes() {
			if big.Has(v) {
				continue
			}
			mdSmall := in.MarginalDecrement(small, allocSmall, v)
			mdBig := in.MarginalDecrement(big, allocBig, v)
			if mdBig > mdSmall+1e-9 {
				t.Fatalf("trial %d: submodularity violated at %d: %v > %v", trial, v, mdBig, mdSmall)
			}
		}
	}
}

// Property: MarginalDecrement agrees with the definitional
// d(P ∪ {v}) − d(P) recomputed from scratch.
func TestMarginalDecrementMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		g := topology.GeneralRandom(5+rng.Intn(10), 0.8, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{Density: 0.3, Seed: rng.Int63(), MaxFlows: 15})
		if len(flows) == 0 {
			continue
		}
		in := MustNew(g, flows, 0.3)
		p := NewPlan()
		for _, v := range g.Nodes() {
			if rng.Intn(3) == 0 {
				p.Add(v)
			}
		}
		alloc := in.Allocate(p)
		base := in.Decrement(p)
		for _, v := range g.Nodes() {
			if p.Has(v) {
				continue
			}
			pv := p.Clone()
			pv.Add(v)
			want := in.Decrement(pv) - base
			got := in.MarginalDecrement(p, alloc, v)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: marginal(%d) = %v, definition %v", trial, v, got, want)
			}
		}
	}
}
