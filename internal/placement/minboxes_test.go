package placement

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/setcover"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

func TestMinBoxesFig1(t *testing.T) {
	in := fig1Instance(t)
	r, err := MinBoxes(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("MinBoxes plan infeasible")
	}
	// Fig. 1's minimum cover is 2 ({v2, v5} or equivalents).
	if r.Plan.Size() != 2 {
		t.Fatalf("MinBoxes used %d boxes, want 2", r.Plan.Size())
	}
}

func TestMinBoxesEmptyWorkload(t *testing.T) {
	g := graph.New()
	g.AddNodes(3)
	g.AddBiEdge(0, 1)
	g.AddBiEdge(1, 2)
	in := netsim.MustNew(g, nil, 0.5)
	r, err := MinBoxes(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan.Size() != 0 {
		t.Fatalf("empty workload used %d boxes", r.Plan.Size())
	}
}

// The two objectives diverge: at equal k, GTPBudget's bandwidth is
// never worse than MinBoxes' (both feasible, same box count budget).
func TestMinBoxesVsGTPBandwidthGap(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	worse := 0
	runs := 0
	for trial := 0; trial < 25; trial++ {
		g := topology.GeneralRandom(8+rng.Intn(12), 0.7, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.5, Seed: rng.Int63(), MaxFlows: 15})
		if len(flows) == 0 {
			continue
		}
		in := netsim.MustNew(g, flows, 0.5)
		mb, err := MinBoxes(context.Background(), in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// A paper-style minimality certificate on small instances: no
		// feasible plan with fewer boxes exists.
		if in.G.NumNodes() <= 14 && mb.Plan.Size() > 1 {
			if _, err := Exhaustive(context.Background(), in, mb.Plan.Size()-1); err == nil {
				// Greedy cover is only H(n)-approximate; a smaller plan
				// may exist, but then greedy must be within the bound.
				opt, _ := Exhaustive(context.Background(), in, mb.Plan.Size()-1)
				if opt.Plan.Size() < (mb.Plan.Size()+1)/2 && mb.Plan.Size() > 2*opt.Plan.Size() {
					t.Fatalf("trial %d: greedy cover %d wildly above optimum %d",
						trial, mb.Plan.Size(), opt.Plan.Size())
				}
			}
		}
		gtp, err := GTPBudget(context.Background(), in, mb.Plan.Size())
		if err != nil {
			continue
		}
		runs++
		if mb.Bandwidth > gtp.Bandwidth {
			worse++
		}
		if gtp.Bandwidth > mb.Bandwidth+1e-9 && gtp.Plan.Size() <= mb.Plan.Size() {
			// GTP optimizes bandwidth at the same budget; it can tie but
			// should essentially never lose to a count-only baseline.
			t.Fatalf("trial %d: GTP (%v) lost to MinBoxes (%v) at equal k", trial, gtp.Bandwidth, mb.Bandwidth)
		}
	}
	if runs > 5 && worse == 0 {
		t.Log("note: MinBoxes never worse than GTP on this sample (expected it usually is)")
	}
}

func TestMinBoxesMatchesSetCoverOptimumSmall(t *testing.T) {
	in := fig1Instance(t)
	// Exhaustive search at k = 1 must fail, certifying 2 is optimal.
	if _, err := Exhaustive(context.Background(), in, 1); err == nil {
		t.Fatal("1 box should not cover Fig. 1")
	}
}

// MinBoxes runs the budget guard's greedy step on the incremental
// state; the classic set-cover greedy over the coverage structure is
// its reference. Both take the vertex covering the most uncovered
// flows, ties to the lowest id, so the plans must be equal. Small
// graphs with many flows to few destinations repeat paths (classes
// with multiplicity > 1) and tie counts often; trees tie every vertex
// on a leaf's private branch.
func TestMinBoxesMatchesSetCoverGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ties := 0
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(14)
		var flows []traffic.Flow
		var g *graph.Graph
		if trial%3 == 0 {
			g = topology.RandomTree(n, 3, rng.Int63())
			tr, err := graph.NewTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			flows = traffic.TreeFlows(tr, traffic.GenConfig{Density: 1e9, Seed: rng.Int63(), MaxFlows: 1 + rng.Intn(20)})
		} else {
			g = topology.GeneralRandom(n, rng.Float64(), rng.Int63())
			dsts := []graph.NodeID{0, graph.NodeID(rng.Intn(n))}
			flows = traffic.GeneralFlows(g, dsts, traffic.GenConfig{Density: 1e9, Seed: rng.Int63(), MaxFlows: 1 + rng.Intn(30)})
		}
		in := netsim.MustNew(g, flows, rng.Float64())
		r, err := MinBoxes(context.Background(), in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sc := setcover.FromTDMD(in)
		want := setcover.Greedy(sc)
		ties += countTiedRounds(sc, want)
		var got []int
		for _, v := range r.Plan.Vertices() {
			got = append(got, int(v))
		}
		slices.Sort(want)
		if !slices.Equal(got, want) || !r.Feasible {
			t.Fatalf("trial %d: MinBoxes plan %v (feasible %v), set-cover greedy %v", trial, got, r.Feasible, want)
		}
	}
	if ties == 0 {
		t.Fatal("no greedy round had a tied count: the tie-break went untested")
	}
}

// countTiedRounds replays the greedy choices and counts the rounds in
// which another set covered as many uncovered elements as the chosen
// one.
func countTiedRounds(sc setcover.Instance, chosen []int) int {
	covered := make([]bool, sc.N)
	ties := 0
	for _, c := range chosen {
		gain := func(s []int) int {
			k := 0
			for _, e := range s {
				if !covered[e] {
					k++
				}
			}
			return k
		}
		best := gain(sc.Sets[c])
		for si, s := range sc.Sets {
			if si != c && gain(s) == best {
				ties++
				break
			}
		}
		for _, e := range sc.Sets[c] {
			covered[e] = true
		}
	}
	return ties
}
