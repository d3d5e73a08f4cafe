package placement

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/paperfix"
)

// Paper walkthrough (Sec. 5.2): with k >= 4 HAT keeps the all-sources
// plan {v4, v5, v7, v8}.
func TestHATFig5KeepsSourcesForLargeK(t *testing.T) {
	in, tree := fig5Instance(t)
	r, err := HAT(context.Background(), in, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !planEquals(r.Plan, paperfix.V(4), paperfix.V(5), paperfix.V(7), paperfix.V(8)) {
		t.Fatalf("k=4 plan = %v, want {v4, v5, v7, v8}", r.Plan)
	}
	if r.Bandwidth != 12 {
		t.Fatalf("k=4 bandwidth = %v, want 12", r.Bandwidth)
	}
}

// Paper walkthrough: the first merge is (v4, v5) -> v2 at Δb = 1.5
// (the minimum of the six pairs; Δb(7,8) = 3 and Δb(4,7) = 9.5), so
// the k=3 plan is {v2, v7, v8}.
func TestHATFig5K3Walkthrough(t *testing.T) {
	in, tree := fig5Instance(t)
	r, trace, err := HATWithTrace(context.Background(), in, tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 1 {
		t.Fatalf("expected 1 merge, got %d", len(trace))
	}
	m := trace[0]
	if m.A != paperfix.V(4) || m.B != paperfix.V(5) || m.LCA != paperfix.V(2) {
		t.Fatalf("merge = %+v, want (v4, v5) -> v2", m)
	}
	if m.Cost != 1.5 {
		t.Fatalf("merge cost = %v, want 1.5", m.Cost)
	}
	if !planEquals(r.Plan, paperfix.V(2), paperfix.V(7), paperfix.V(8)) {
		t.Fatalf("k=3 plan = %v, want {v2, v7, v8}", r.Plan)
	}
	if r.Bandwidth != 13.5 {
		t.Fatalf("k=3 bandwidth = %v, want 13.5", r.Bandwidth)
	}
}

// Paper walkthrough: at k=2 the second round has Δb(2,7) = 9,
// Δb(2,8) = 3, Δb(7,8) = 3; either tie gives {v2, v6} or {v1, v7}.
func TestHATFig5K2Walkthrough(t *testing.T) {
	in, tree := fig5Instance(t)
	r, trace, err := HATWithTrace(context.Background(), in, tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 {
		t.Fatalf("expected 2 merges, got %d", len(trace))
	}
	if trace[1].Cost != 3 {
		t.Fatalf("second merge cost = %v, want 3", trace[1].Cost)
	}
	ok := planEquals(r.Plan, paperfix.V(2), paperfix.V(6)) ||
		planEquals(r.Plan, paperfix.V(1), paperfix.V(7))
	if !ok {
		t.Fatalf("k=2 plan = %v, want {v2, v6} or {v1, v7}", r.Plan)
	}
	if r.Bandwidth != 16.5 {
		t.Fatalf("k=2 bandwidth = %v, want 16.5", r.Bandwidth)
	}
}

// Paper walkthrough: P = {v1} when k = 1.
func TestHATFig5K1(t *testing.T) {
	in, tree := fig5Instance(t)
	r, err := HAT(context.Background(), in, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !planEquals(r.Plan, paperfix.V(1)) {
		t.Fatalf("k=1 plan = %v, want {v1}", r.Plan)
	}
	if r.Bandwidth != 24 {
		t.Fatalf("k=1 bandwidth = %v, want 24", r.Bandwidth)
	}
}

// refHAT is HAT's rescan reference: the same initial plan and merge
// cost expression, but each round it prices every deployed pair afresh
// (LCA by parent walking) and merges the minimum by (cost, A, B). It
// keeps no heap, so it costs O(|P|²·depth) per merge.
func refHAT(in *netsim.Instance, tree *graph.Tree, k int) (Result, []MergeTrace) {
	served := make([]float64, in.G.NumNodes())
	var plan netsim.Plan
	for _, f := range in.Flows() {
		served[f.Src()] += float64(f.Rate)
		plan.Add(f.Src())
	}
	var trace []MergeTrace
	for plan.Size() > k {
		vs := plan.Vertices()
		best := MergeTrace{Cost: math.Inf(1)}
		for i, x := range vs {
			for _, y := range vs[i+1:] {
				l := tree.NaiveLCA(x, y)
				up := float64(tree.Depth(x)-tree.Depth(l))*served[x] + float64(tree.Depth(y)-tree.Depth(l))*served[y]
				c := (1 - in.Lambda) * up
				// vs ascends, so pairs arrive in (A, B) order and a strict
				// < keeps the smallest pair among exact cost ties.
				if c < best.Cost {
					best = MergeTrace{A: x, B: y, LCA: l, Cost: c}
				}
			}
		}
		trace = append(trace, best)
		merged := served[best.A] + served[best.B]
		served[best.A], served[best.B] = 0, 0
		plan.Remove(best.A)
		plan.Remove(best.B)
		served[best.LCA] += merged
		plan.Add(best.LCA)
	}
	return finishBudget(in, plan, k), trace
}

// HAT's heap path matches the rescan reference bit for bit: the same
// plans, bandwidth bits and merge trace (pairs, LCAs, cost bits), and
// HAT agrees with HATWithTrace.
func TestHATHeapMatchesBruteForceTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checked := 0
	for trial := 0; trial < 240; trial++ {
		in, tree := randomTreeInstance(rng, 3+rng.Intn(30))
		if in.NumFlows() == 0 {
			continue
		}
		checked++
		for k := 1; k <= 6; k++ {
			fast, err := HAT(context.Background(), in, tree, k)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			traced, trace, err := HATWithTrace(context.Background(), in, tree, k)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			ref, refTrace := refHAT(in, tree, k)
			for _, got := range []Result{fast, traced} {
				if !slices.Equal(got.Plan.Vertices(), ref.Plan.Vertices()) ||
					math.Float64bits(got.Bandwidth) != math.Float64bits(ref.Bandwidth) ||
					got.Feasible != ref.Feasible {
					t.Fatalf("trial %d k=%d: HAT plan %v bandwidth %v, reference plan %v bandwidth %v",
						trial, k, got.Plan, got.Bandwidth, ref.Plan, ref.Bandwidth)
				}
			}
			if len(trace) != len(refTrace) {
				t.Fatalf("trial %d k=%d: %d merges, reference %d", trial, k, len(trace), len(refTrace))
			}
			for i, m := range trace {
				r := refTrace[i]
				if m.A != r.A || m.B != r.B || m.LCA != r.LCA || math.Float64bits(m.Cost) != math.Float64bits(r.Cost) {
					t.Fatalf("trial %d k=%d merge %d: HAT %+v, reference %+v", trial, k, i, m, r)
				}
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d trees carried flows, want at least 200", checked)
	}
}

// HAT is always feasible on root-destination trees for k >= 1 and
// never better than the DP optimum.
func TestHATFeasibleAndBoundedByDP(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 25; trial++ {
		in, tree := randomTreeInstance(rng, 3+rng.Intn(12))
		if in.NumFlows() == 0 {
			continue
		}
		for k := 1; k <= 4; k++ {
			h, err := HAT(context.Background(), in, tree, k)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if !h.Feasible {
				t.Fatalf("trial %d k=%d: HAT infeasible plan %v", trial, k, h.Plan)
			}
			if h.Plan.Size() > k {
				t.Fatalf("trial %d k=%d: plan size %d over budget", trial, k, h.Plan.Size())
			}
			d, err := TreeDP(context.Background(), in, tree, k)
			if err != nil {
				t.Fatalf("trial %d k=%d: DP: %v", trial, k, err)
			}
			if h.Bandwidth < d.Bandwidth-1e-9 {
				t.Fatalf("trial %d k=%d: HAT %v beat the optimum %v", trial, k, h.Bandwidth, d.Bandwidth)
			}
		}
	}
}

func TestHATRejectsZeroBudget(t *testing.T) {
	in, tree := fig5Instance(t)
	if _, err := HAT(context.Background(), in, tree, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestHATEmptyWorkload(t *testing.T) {
	g, tree, _, _ := paperfix.Fig5()
	in := netsim.MustNew(g, nil, 0.5)
	r, err := HAT(context.Background(), in, tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan.Size() != 0 || r.Bandwidth != 0 {
		t.Fatalf("empty workload: %+v", r)
	}
}
