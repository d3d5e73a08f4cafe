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

func fig1Instance(t *testing.T) *netsim.Instance {
	t.Helper()
	g, flows, lambda := paperfix.Fig1()
	return netsim.MustNew(g, flows, lambda)
}

func planEquals(p netsim.Plan, want ...graph.NodeID) bool {
	if p.Size() != len(want) {
		return false
	}
	for _, v := range want {
		if !p.Has(v) {
			return false
		}
	}
	return true
}

// Paper walkthrough, Sec. 4.2: GTP on Fig. 1 picks v5 (d=4), then v6
// (d=3), then v4 (d=1), ending with the k=3 optimal plan {v4, v5, v6}
// at total bandwidth 8.
func TestGTPFig1Walkthrough(t *testing.T) {
	in := fig1Instance(t)
	r := GTP(context.Background(), in)
	if !r.Feasible {
		t.Fatal("GTP plan infeasible")
	}
	if !planEquals(r.Plan, paperfix.V(4), paperfix.V(5), paperfix.V(6)) {
		t.Fatalf("GTP plan = %v, want {v4, v5, v6}", r.Plan)
	}
	if r.Bandwidth != 8 {
		t.Fatalf("GTP bandwidth = %v, want 8", r.Bandwidth)
	}
}

// Paper walkthrough: with k = 2 the budgeted greedy must not take v6
// after v5 (that strands f4); it is forced onto v2, giving {v2, v5}
// and bandwidth 12.
func TestGTPBudgetFig1K2(t *testing.T) {
	in := fig1Instance(t)
	r, err := GTPBudget(context.Background(), in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !planEquals(r.Plan, paperfix.V(2), paperfix.V(5)) {
		t.Fatalf("plan = %v, want {v2, v5}", r.Plan)
	}
	if r.Bandwidth != 12 {
		t.Fatalf("bandwidth = %v, want 12", r.Bandwidth)
	}
}

func TestGTPBudgetFig1K3(t *testing.T) {
	in := fig1Instance(t)
	r, err := GTPBudget(context.Background(), in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !planEquals(r.Plan, paperfix.V(4), paperfix.V(5), paperfix.V(6)) {
		t.Fatalf("plan = %v, want {v4, v5, v6}", r.Plan)
	}
	if r.Bandwidth != 8 {
		t.Fatalf("bandwidth = %v, want 8", r.Bandwidth)
	}
}

func TestGTPBudgetK1Fig1(t *testing.T) {
	in := fig1Instance(t)
	// No single vertex covers all four flows, so k=1 is infeasible.
	if _, err := GTPBudget(context.Background(), in, 1); err == nil {
		t.Fatal("k=1 should be infeasible on Fig. 1")
	}
}

func TestGTPBudgetRejectsZeroBudget(t *testing.T) {
	in := fig1Instance(t)
	if _, err := GTPBudget(context.Background(), in, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestGTPLazyMatchesGTPFig1(t *testing.T) {
	in := fig1Instance(t)
	a, b := GTP(context.Background(), in), GTPLazy(context.Background(), in)
	if a.Plan.String() != b.Plan.String() {
		t.Fatalf("lazy plan %v != plain plan %v", b.Plan, a.Plan)
	}
	if a.Bandwidth != b.Bandwidth {
		t.Fatalf("lazy bandwidth %v != plain %v", b.Bandwidth, a.Bandwidth)
	}
}

// Property: lazy and plain GTP produce identical plans on random
// general instances (submodularity makes stale bounds safe).
func TestGTPLazyMatchesGTPRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		g := topology.GeneralRandom(5+rng.Intn(25), 0.7, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.4, Seed: rng.Int63(), MaxFlows: 30})
		if len(flows) == 0 {
			continue
		}
		in := netsim.MustNew(g, flows, float64(rng.Intn(10))/10)
		a, b := GTP(context.Background(), in), GTPLazy(context.Background(), in)
		if a.Plan.String() != b.Plan.String() {
			t.Fatalf("trial %d: lazy %v != plain %v", trial, b.Plan, a.Plan)
		}
	}
}

// Property: GTPLazy's heap pops every entry once, in non-increasing
// gain order, after any rounds of popping entries and pushing them
// back with lower gains, as popBestLazy does (gains repeat, so ties
// are exercised).
func TestLazyHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		gains := make([]float64, rng.Intn(60))
		for v := range gains {
			gains[v] = float64(rng.Intn(8))
		}
		h := newLazyHeap(len(gains), func(v graph.NodeID) float64 { return gains[v] })
		for round := rng.Intn(5); round > 0; round-- {
			var popped []graph.NodeID
			for k := rng.Intn(len(h) + 1); k > 0; k-- {
				popped = append(popped, h.pop())
			}
			for _, v := range popped {
				gains[v] -= float64(rng.Intn(3))
				h.push(lazyEntry{gains[v], v})
			}
		}
		seen := make([]bool, len(gains))
		last := math.Inf(1)
		for len(h) > 0 {
			v := h.pop()
			if seen[v] || gains[v] > last {
				t.Fatalf("trial %d: popped %d (gain %v) after gain %v, seen before %v", trial, v, gains[v], last, seen[v])
			}
			seen[v], last = true, gains[v]
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("trial %d: vertex %d never popped", trial, v)
			}
		}
	}
}

// Property: GTP always returns a feasible plan on valid instances
// (every flow's source can host a middlebox).
func TestGTPAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		g := topology.GeneralRandom(4+rng.Intn(20), 0.5, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.5, Seed: rng.Int63(), MaxFlows: 25})
		if len(flows) == 0 {
			continue
		}
		in := netsim.MustNew(g, flows, 0.5)
		if r := GTP(context.Background(), in); !r.Feasible {
			t.Fatalf("trial %d: GTP infeasible plan %v", trial, r.Plan)
		}
	}
}

// Theorem 3 sanity: GTP's decrement after |P_exh| picks is at least
// (1 − 1/e) of the best decrement achievable with that many boxes,
// verified against the exhaustive optimum on small instances.
func TestGTPApproximationGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		g := topology.GeneralRandom(6+rng.Intn(6), 0.6, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.4, Seed: rng.Int63(), MaxFlows: 12})
		if len(flows) == 0 {
			continue
		}
		in := netsim.MustNew(g, flows, 0.5)
		gtp := GTP(context.Background(), in)
		k := gtp.Plan.Size()
		opt, err := Exhaustive(context.Background(), in, k)
		if err != nil {
			continue
		}
		dGreedy := in.Decrement(gtp.Plan)
		dOpt := in.Decrement(opt.Plan)
		if dOpt > 0 && dGreedy < (1-1/math.E)*dOpt-1e-9 {
			t.Fatalf("trial %d: greedy decrement %v below (1-1/e)·%v", trial, dGreedy, dOpt)
		}
	}
}

// GTPBudget must never beat the exhaustive optimum and must stay
// feasible when it reports success.
func TestGTPBudgetVersusExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		g := topology.GeneralRandom(5+rng.Intn(7), 0.6, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.4, Seed: rng.Int63(), MaxFlows: 10})
		if len(flows) == 0 {
			continue
		}
		in := netsim.MustNew(g, flows, 0.5)
		for k := 1; k <= 4; k++ {
			got, err := GTPBudget(context.Background(), in, k)
			opt, optErr := Exhaustive(context.Background(), in, k)
			if err != nil {
				continue // conservative guard may give up; fine
			}
			if !got.Feasible {
				t.Fatalf("trial %d k=%d: GTPBudget returned infeasible plan", trial, k)
			}
			if got.Plan.Size() > k {
				t.Fatalf("trial %d k=%d: plan size %d over budget", trial, k, got.Plan.Size())
			}
			if optErr == nil && got.Bandwidth < opt.Bandwidth-1e-9 {
				t.Fatalf("trial %d k=%d: heuristic %v beat optimum %v", trial, k, got.Bandwidth, opt.Bandwidth)
			}
		}
	}
}

// More budget never hurts GTPBudget on Fig. 1.
func TestGTPBudgetMonotoneInK(t *testing.T) {
	in := fig1Instance(t)
	prev := math.Inf(1)
	for k := 2; k <= 6; k++ {
		r, err := GTPBudget(context.Background(), in, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if r.Bandwidth > prev+1e-9 {
			t.Fatalf("bandwidth increased with budget: k=%d %v > %v", k, r.Bandwidth, prev)
		}
		prev = r.Bandwidth
	}
	// Minimum possible: λ·Σ r|p| = 8 reached by k >= 3.
	if prev != 8 {
		t.Fatalf("large-budget bandwidth = %v, want 8", prev)
	}
}
