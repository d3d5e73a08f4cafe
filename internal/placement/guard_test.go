package placement

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// The budget guard's reference: CompletePlan guards only the winner of
// each round and runs its greedy set cover on the solver's State. The
// eager formulation below guards every candidate before ranking and
// counts its greedy cover over CoveredBy's per-flow lists, sharing no
// code with the solver beyond State's scores. Both must return the
// same plan, or both ErrInfeasible, and every guard call of the
// reference cross-checks coverFits against its own count.

// refCoverCount is the per-flow greedy set cover: how many boxes
// beyond the plan and v it takes to serve the still-unserved flows,
// never picking a banned vertex, or math.MaxInt when some flow cannot
// be served.
func refCoverCount(st *netsim.State, cov [][]int, v graph.NodeID, banned []bool) int {
	in := st.Instance()
	unserved := make([]bool, in.NumFlows())
	for i := range unserved {
		unserved[i] = st.Serving(i) == netsim.Unserved
	}
	for _, f := range cov[v] {
		unserved[f] = false
	}
	boxes := 0
	for slices.Contains(unserved, true) {
		best, bestCnt := graph.Invalid, 0
		for w := range cov {
			u := graph.NodeID(w)
			if st.Has(u) || u == v || banned[w] {
				continue
			}
			cnt := 0
			for _, f := range cov[w] {
				if unserved[f] {
					cnt++
				}
			}
			if cnt > bestCnt {
				best, bestCnt = u, cnt
			}
		}
		if best == graph.Invalid {
			return math.MaxInt
		}
		for _, f := range cov[best] {
			unserved[f] = false
		}
		boxes++
	}
	return boxes
}

// checkCoverFits calls coverFits on (st, v) at limits around the
// reference count need and asserts each answer, and that the call left
// st's plan, bandwidth bits, unserved count and scores untouched.
func checkCoverFits(t *testing.T, st *netsim.State, v graph.NodeID, banned []bool, need, remaining int) {
	t.Helper()
	n := st.Instance().G.NumNodes()
	plan := st.Plan()
	bw := math.Float64bits(st.Bandwidth())
	unserved := st.UnservedCount()
	trail := make([]graph.NodeID, 0, n)
	limits := []int{remaining}
	if need < n {
		limits = append(limits, need)
		if need > 0 {
			limits = append(limits, need-1)
		}
	}
	for _, limit := range limits {
		if got, want := coverFits(st, v, banned, limit, trail), need <= limit; got != want {
			t.Fatalf("coverFits(v=%d, limit=%d) = %v, per-flow greedy cover needs %d", v, limit, got, need)
		}
		if got := st.Plan(); !slices.Equal(got.Vertices(), plan.Vertices()) {
			t.Fatalf("coverFits(v=%d) left plan %v, want %v", v, got, plan)
		}
		if math.Float64bits(st.Bandwidth()) != bw || st.UnservedCount() != unserved {
			t.Fatalf("coverFits(v=%d) changed bandwidth or unserved count", v)
		}
	}
	in := st.Instance()
	alloc := in.Allocate(plan)
	for u := graph.NodeID(0); int(u) < n; u++ {
		if math.Float64bits(st.MarginalGain(u)) != math.Float64bits(in.MarginalDecrement(plan, alloc, u)) {
			t.Fatalf("coverFits(v=%d) left a stale marginal at %d", v, u)
		}
	}
}

// refCompletePlan is CompletePlan with the eager guard: each round
// ranks only the candidates whose per-flow greedy cover fits the
// budget left after them. passedOver counts the rounds whose unguarded
// winner failed the guard, the case where CompletePlan must re-rank.
func refCompletePlan(t *testing.T, in *netsim.Instance, base netsim.Plan, k int, banned []bool) (p netsim.Plan, passedOver int, err error) {
	t.Helper()
	cov := in.CoveredBy()
	st := netsim.NewState(in, base)
	// rank returns the best undeployed, unbanned vertex passing ok by
	// (gain, covered, −id), with its keys.
	rank := func(ok func(graph.NodeID) bool) (graph.NodeID, float64, int) {
		best, bestGain, bestCov := graph.Invalid, math.Inf(-1), -1
		for w := range cov {
			v := graph.NodeID(w)
			if st.Has(v) || banned[w] || !ok(v) {
				continue
			}
			// The scan ascends by ID, so a strict > on every key keeps
			// the smallest ID among exact ties.
			gain, covered := st.MarginalGain(v), st.UnservedCovered(v)
			if gain > bestGain || (!(gain < bestGain) && covered > bestCov) {
				best, bestGain, bestCov = v, gain, covered
			}
		}
		return best, bestGain, bestCov
	}
	for st.Size() < k && !st.Feasible() {
		remaining := k - st.Size() - 1
		v, gain, covered := rank(func(v graph.NodeID) bool {
			need := refCoverCount(st, cov, v, banned)
			checkCoverFits(t, st, v, banned, need, remaining)
			return need <= remaining
		})
		if top, _, _ := rank(func(graph.NodeID) bool { return true }); v != graph.Invalid && top != v {
			passedOver++
		}
		if v == graph.Invalid || (gain <= 0 && covered == 0) {
			return netsim.Plan{}, passedOver, ErrInfeasible
		}
		st.AddBox(v)
	}
	if !st.Feasible() {
		return netsim.Plan{}, passedOver, ErrInfeasible
	}
	for st.Size() < k {
		v, gain, _ := rank(func(graph.NodeID) bool { return true })
		if v == graph.Invalid || gain <= 0 {
			break
		}
		st.AddBox(v)
	}
	return st.Plan(), passedOver, nil
}

// guardInstance draws a random general (tree = false) or tree workload
// with ratio lambda.
func guardInstance(rng *rand.Rand, tree bool, lambda float64) *netsim.Instance {
	cfg := traffic.GenConfig{Density: 0.5, Dist: traffic.Uniform{Lo: 1, Hi: 6}, Seed: rng.Int63(), MaxFlows: 40}
	if tree {
		g := topology.RandomTree(8+rng.Intn(16), 0, rng.Int63())
		tr, err := graph.NewTree(g, 0)
		if err != nil {
			panic(err)
		}
		return netsim.MustNew(g, traffic.TreeFlows(tr, cfg), lambda)
	}
	g := topology.GeneralRandom(8+rng.Intn(20), 0.6, rng.Int63())
	return netsim.MustNew(g, traffic.GeneralFlows(g, []graph.NodeID{0, 1, 2}, cfg), lambda)
}

// guardCorpus tallies what a reference comparison exercised.
type guardCorpus struct{ solved, refused, passedOver int }

// check fails unless the corpus reached both outcomes and the re-rank
// after a guard rejection.
func (c guardCorpus) check(t *testing.T) {
	t.Helper()
	if c.solved == 0 || c.refused == 0 || c.passedOver == 0 {
		t.Fatalf("corpus too narrow: %+v", c)
	}
}

// compareWithReference runs CompletePlan and the eager reference on
// one input, fails on any difference, and tallies the case in c.
func compareWithReference(t *testing.T, c *guardCorpus, name string, in *netsim.Instance, base netsim.Plan, k int, banned map[graph.NodeID]bool) {
	t.Helper()
	flat := make([]bool, in.G.NumNodes())
	for v := range banned {
		flat[v] = true
	}
	want, passedOver, wantErr := refCompletePlan(t, in, base, k, flat)
	c.passedOver += passedOver
	got, err := CompletePlan(context.Background(), in, base, k, banned)
	switch {
	case wantErr != nil:
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: CompletePlan = %v, %v; eager reference: %v", name, got.Plan, err, wantErr)
		}
		c.refused++
	case err != nil:
		t.Fatalf("%s: CompletePlan: %v; eager reference plan %v", name, err, want)
	case !slices.Equal(got.Plan.Vertices(), want.Vertices()):
		t.Fatalf("%s: CompletePlan plan %v, eager reference %v", name, got.Plan, want)
	default:
		c.solved++
	}
}

func TestCompletePlanMatchesEagerGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var c guardCorpus
	for trial := 0; trial < 12; trial++ {
		for _, lambda := range []float64{0.3, 0.9, 1.5, 2.5} {
			tree := trial%2 == 1
			in := guardInstance(rng, tree, lambda)
			if in.NumFlows() == 0 {
				continue
			}
			mb, err := MinBoxes(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			// Tight budgets straddle the greedy cover size; the loose
			// one leaves room for the spend phase.
			tight := mb.Plan.Size()
			for _, k := range []int{tight - 1, tight, tight + 1, tight + 5} {
				if k < 1 {
					continue
				}
				name := fmt.Sprintf("trial %d tree=%v λ=%v k=%d", trial, tree, lambda, k)
				compareWithReference(t, &c, name, in, netsim.NewPlan(), k, nil)
			}
		}
	}
	c.check(t)
	t.Logf("%+v", c)
}

// The resilience repair path: a partial base plan and a banned set of
// failed vertices.
func TestCompletePlanMatchesEagerGuardBanned(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var c guardCorpus
	for trial := 0; trial < 12; trial++ {
		for _, lambda := range []float64{0.3, 0.9, 1.5, 2.5} {
			tree := trial%2 == 0
			in := guardInstance(rng, tree, lambda)
			n := in.G.NumNodes()
			if in.NumFlows() == 0 {
				continue
			}
			for rep := 0; rep < 3; rep++ {
				banned := make(map[graph.NodeID]bool)
				for i := 1 + rng.Intn(4); i > 0; i-- {
					banned[graph.NodeID(rng.Intn(n))] = true
				}
				base := netsim.NewPlan()
				for i := rng.Intn(3); i > 0; i-- {
					if v := graph.NodeID(rng.Intn(n)); !banned[v] {
						base.Add(v)
					}
				}
				k := base.Size() + 1 + rng.Intn(6)
				name := fmt.Sprintf("trial %d rep %d tree=%v λ=%v k=%d banned=%v base=%v", trial, rep, tree, lambda, k, banned, base)
				compareWithReference(t, &c, name, in, base, k, banned)
			}
		}
	}
	c.check(t)
	t.Logf("%+v", c)
}
