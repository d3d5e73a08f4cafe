package placement

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
)

// RandomPlacement is the evaluation's Random benchmark: deploy k
// middleboxes on uniformly random distinct vertices. Matching the
// paper's protocol ("our simulations only study feasible deployments
// ... we choose to regenerate"), infeasible draws are rejected and
// resampled up to maxAttempts; if none is feasible the sampler falls
// back to a greedy cover completed with random vertices, so the
// harness always scores a feasible plan. Draws are rejection-tested
// with Instance.Feasible, which needs no full allocation.
// RandomPlacement is fail-fast under cancellation: draws are cheap, so
// an interrupted sampler returns the context error rather than a
// partial plan.
func RandomPlacement(ctx context.Context, in *netsim.Instance, k int, rng *rand.Rand) (Result, error) {
	if err := validateBudget(k); err != nil {
		return Result{}, err
	}
	n := in.G.NumNodes()
	if k > n {
		k = n
	}
	sc := observing(ctx)
	var samples int64
	defer func() { sc.count("samples", samples) }()
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if canceled(ctx) {
			return Result{}, interruptedErr(ctx)
		}
		samples++
		p := netsim.NewPlan()
		for _, idx := range rng.Perm(n)[:k] {
			p.Add(graph.NodeID(idx))
		}
		if in.Feasible(p) {
			return finish(in, p), nil
		}
	}
	// Fallback: greedy cover for feasibility, random filler for the
	// remaining budget.
	st := netsim.NewState(in, netsim.NewPlan())
	for !st.Feasible() && st.Size() < k {
		if canceled(ctx) {
			return Result{}, interruptedErr(ctx)
		}
		v := mostCovering(st, nil)
		if v == graph.Invalid {
			return Result{}, ErrInfeasible
		}
		st.AddBox(v)
	}
	if !st.Feasible() {
		return Result{}, ErrInfeasible
	}
	for _, idx := range rng.Perm(n) {
		if st.Size() >= k {
			break
		}
		st.AddBox(graph.NodeID(idx))
	}
	return finish(in, st.Plan()), nil
}

// BestEffort is the evaluation's Best-effort benchmark: it scores
// every vertex once by how much bandwidth a middlebox there would save
// on its own — the static decrement d_∅({v}) — and deploys on the k
// top-ranked vertices. Unlike GTP it never re-scores after a
// deployment, so it happily stacks middleboxes on the same flows'
// paths; that missing marginal awareness is exactly the gap the
// evaluation figures show between the two greedy curves.
//
// Like the other budgeted heuristics it refuses to strand coverage:
// if the top-k set leaves flows unserved, the lowest-ranked picks are
// replaced by greedy-cover vertices. The repair loop runs on the
// incremental state — one Remove and one Add per iteration instead of
// the three full re-allocations the original formulation paid.
func BestEffort(ctx context.Context, in *netsim.Instance, k int) (Result, error) {
	if err := validateBudget(k); err != nil {
		return Result{}, err
	}
	if canceled(ctx) {
		return Result{}, interruptedErr(ctx)
	}
	type scored struct {
		v    graph.NodeID
		gain float64
	}
	st := netsim.NewState(in, netsim.NewPlan())
	ranked := make([]scored, 0, in.G.NumNodes())
	for _, v := range in.G.Nodes() {
		ranked = append(ranked, scored{v, st.MarginalGain(v)})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].gain > ranked[j].gain {
			return true
		}
		if ranked[i].gain < ranked[j].gain {
			return false
		}
		return ranked[i].v < ranked[j].v
	})
	if k > len(ranked) {
		k = len(ranked)
	}
	for _, s := range ranked[:k] {
		st.AddBox(s.v)
	}
	// Coverage repair: drop the lowest-ranked picks in favour of
	// greedy-cover vertices until every flow is served.
	sc := observing(ctx)
	repairStart := time.Now()
	var repairs int64
	defer func() {
		sc.count("repair_iterations", repairs)
		sc.phase("repair", repairStart)
	}()
	for drop := k - 1; !st.Feasible() && drop >= 0; drop-- {
		if canceled(ctx) {
			return Result{}, interruptedErr(ctx)
		}
		repairs++
		st.RemoveBox(ranked[drop].v)
		v := mostCovering(st, nil)
		if v == graph.Invalid {
			return Result{}, ErrInfeasible
		}
		st.AddBox(v)
	}
	if !st.Feasible() {
		return Result{}, ErrInfeasible
	}
	return finish(in, st.Plan()), nil
}

// mostCovering returns the undeployed vertex not marked in skip (nil
// skips nothing) covering the most unserved flows under the current
// incremental state, the smaller ID on ties; graph.Invalid when no
// such vertex covers any. It is the greedy set-cover step of the
// coverage repairs and of the budget guard (coverFits).
//
//tdmd:hot
func mostCovering(st *netsim.State, skip []bool) graph.NodeID {
	best := graph.Invalid
	bestCnt := 0
	n := st.Instance().G.NumNodes()
	for v := graph.NodeID(0); int(v) < n; v++ {
		if st.Has(v) || (skip != nil && skip[v]) {
			continue
		}
		if cnt := st.UnservedCovered(v); cnt > bestCnt {
			best, bestCnt = v, cnt
		}
	}
	return best
}
