package setcover

import (
	"math/rand"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/paperfix"
	"tdmd/internal/traffic"
)

// fig2Instance is the paper's Fig. 2 reduction example:
// universe {f1..f4}, S1 = {f1, f2, f4}, S2 = {f1, f2}, S3 = {f3}.
func fig2Instance() Instance {
	return Instance{
		N:    4,
		Sets: [][]int{{0, 1, 3}, {0, 1}, {2}},
	}
}

func TestValidate(t *testing.T) {
	in := fig2Instance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Instance{N: 3, Sets: [][]int{{0, 5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range element accepted")
	}
	gap := Instance{N: 3, Sets: [][]int{{0, 1}}}
	if err := gap.Validate(); err == nil {
		t.Fatal("uncovered universe accepted")
	}
}

// Paper: the minimum cover of Fig. 2 is {S1, S3}, so the equivalent
// TDMD instance needs middleboxes on v1 and v3.
func TestGreedyFig2(t *testing.T) {
	in := fig2Instance()
	chosen := Greedy(in)
	if len(chosen) != 2 {
		t.Fatalf("greedy cover = %v, want 2 sets", chosen)
	}
	if chosen[0] != 0 || chosen[1] != 2 {
		t.Fatalf("greedy cover = %v, want [0 2] (S1, S3)", chosen)
	}
	if !in.Covers(chosen) {
		t.Fatal("greedy result does not cover")
	}
}

func TestOptimalSizeFig2(t *testing.T) {
	if got := OptimalSize(fig2Instance()); got != 2 {
		t.Fatalf("optimal cover size = %d, want 2", got)
	}
}

func TestCovers(t *testing.T) {
	in := fig2Instance()
	if in.Covers([]int{0}) {
		t.Fatal("S1 alone covers? f3 is missing")
	}
	if !in.Covers([]int{0, 2}) {
		t.Fatal("{S1, S3} must cover")
	}
	if in.Covers([]int{0, 9}) {
		t.Fatal("out-of-range set index accepted")
	}
}

// Property: greedy cover size is between the optimum and
// optimum·H(n) on random instances.
func TestGreedyWithinHarmonicBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(8)
		m := 3 + rng.Intn(7)
		in := Instance{N: n, Sets: make([][]int, m)}
		for e := 0; e < n; e++ {
			// Guarantee coverage: each element joins >= 1 random set.
			in.Sets[rng.Intn(m)] = append(in.Sets[rng.Intn(m)], e)
		}
		for si := range in.Sets {
			for e := 0; e < n; e++ {
				if rng.Intn(3) == 0 {
					in.Sets[si] = append(in.Sets[si], e)
				}
			}
		}
		if err := in.Validate(); err != nil {
			continue // the "guarantee" used two different rng draws; skip rare misses
		}
		greedy := Greedy(in)
		opt := OptimalSize(in)
		if opt < 0 || greedy == nil {
			t.Fatalf("trial %d: unsolvable validated instance", trial)
		}
		if len(greedy) < opt {
			t.Fatalf("trial %d: greedy (%d) beat optimal (%d)", trial, len(greedy), opt)
		}
		h := 0.0
		for i := 1; i <= n; i++ {
			h += 1.0 / float64(i)
		}
		if float64(len(greedy)) > float64(opt)*h+1e-9 {
			t.Fatalf("trial %d: greedy %d exceeds H(n) bound %v·%d", trial, len(greedy), h, opt)
		}
	}
}

// Forward reduction (Theorem 1): the reduced TDMD instance is feasible
// with k middleboxes iff the set-cover instance has a k-cover.
func TestToTDMDFeasibilityEquivalence(t *testing.T) {
	in := fig2Instance()
	g, flows, err := ToTDMD(in)
	if err != nil {
		t.Fatal(err)
	}
	tdmd := netsim.MustNew(g, flows, 0.5)
	// Deploying on S1 and S3's vertices serves all flows.
	p := netsim.NewPlan(0, 2)
	if !tdmd.Feasible(p) {
		t.Fatal("cover {S1, S3} must yield a feasible deployment")
	}
	// S1+S2 misses f3.
	if tdmd.Feasible(netsim.NewPlan(0, 1)) {
		t.Fatal("non-cover {S1, S2} must be infeasible")
	}
	if got := OptimalSize(in); got != 2 {
		t.Fatalf("OptimalSize = %d, want the known optimum 2", got)
	}
}

func TestToTDMDFlowPathsVisitContainingSets(t *testing.T) {
	in := fig2Instance()
	g, flows, err := ToTDMD(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := traffic.Validate(g, flows); err != nil {
		t.Fatal(err)
	}
	// Flow f1 (element 0) is in S1 and S2: path visits vertices 0, 1.
	f := flows[0]
	if !f.Path.Contains(0) || !f.Path.Contains(1) || f.Path.Contains(2) {
		t.Fatalf("f1 path = %v", f.Path)
	}
}

func TestToTDMDRejectsInvalid(t *testing.T) {
	if _, _, err := ToTDMD(Instance{N: 2, Sets: [][]int{{0}}}); err == nil {
		t.Fatal("uncovered instance accepted")
	}
}

// Reverse reduction: the set-cover extracted from a TDMD instance has
// a k-cover exactly when the TDMD instance has a feasible k-plan.
func TestFromTDMDFig1(t *testing.T) {
	g, flows, lambda := paperfix.Fig1()
	tdmd := netsim.MustNew(g, flows, lambda)
	sc := FromTDMD(tdmd)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 1 needs 2 middleboxes minimum ({v2, v5}).
	if got := OptimalSize(sc); got != 2 {
		t.Fatalf("optimal cover of Fig. 1 = %d, want 2", got)
	}
	// And the corresponding vertices really are a feasible plan.
	if !tdmd.Feasible(netsim.NewPlan(paperfix.V(2), paperfix.V(5))) {
		t.Fatal("{v2, v5} infeasible?")
	}
}

// Round-trip property: random set-cover instance -> TDMD -> set cover
// preserves the optimal cover size (sink vertices never reduce it
// because each sink covers a single flow already covered by its sets).
func TestReductionRoundTripPreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(5)
		m := 2 + rng.Intn(4)
		in := Instance{N: n, Sets: make([][]int, m)}
		for e := 0; e < n; e++ {
			s := rng.Intn(m)
			in.Sets[s] = append(in.Sets[s], e)
			if rng.Intn(2) == 0 {
				in.Sets[(s+1)%m] = append(in.Sets[(s+1)%m], e)
			}
		}
		if in.Validate() != nil {
			continue
		}
		g, flows, err := ToTDMD(in)
		if err != nil {
			t.Fatal(err)
		}
		tdmd := netsim.MustNew(g, flows, 0.5)
		back := FromTDMD(tdmd)
		origOpt := OptimalSize(in)
		backOpt := OptimalSize(back)
		if backOpt > origOpt {
			t.Fatalf("trial %d: round-trip optimum rose from %d to %d", trial, origOpt, backOpt)
		}
		// Sinks can only substitute for singleton sets, never shrink the
		// cover below the original optimum.
		if backOpt < origOpt {
			t.Fatalf("trial %d: round-trip optimum fell from %d to %d", trial, origOpt, backOpt)
		}
	}
}

func TestFromTDMDGraphSanity(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, b)
	flows := []traffic.Flow{{ID: 0, Rate: 1, Path: graph.Path{a, b}}}
	in := netsim.MustNew(g, flows, 0.5)
	sc := FromTDMD(in)
	if sc.N != 1 || len(sc.Sets) != 2 {
		t.Fatalf("unexpected structure: %+v", sc)
	}
	if got := OptimalSize(sc); got != 1 {
		t.Fatalf("optimum = %d, want 1", got)
	}
}
