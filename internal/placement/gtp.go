package placement

import (
	"context"
	"fmt"
	"math"
	"time"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/pq"
)

// GTP is the paper's Algorithm 1 (General Topology Placement): starting
// from the empty plan, repeatedly deploy on the vertex with the maximum
// marginal decrement d_P(v) until every flow is served. The number of
// middleboxes k is an output, not an input; Theorem 3 gives the
// (1 − 1/e) decrement guarantee for that k.
//
// The greedy runs on netsim.State, the incremental allocation engine:
// each deployment updates only the flows through the chosen vertex and
// invalidates only the scores their paths touch, instead of re-running
// the full O(|F|·|P|) allocation every round.
//
// Ties on the marginal decrement are broken toward the vertex covering
// more still-unserved flows (which is what lets the greedy terminate
// once positive gains are exhausted), then toward the smaller vertex
// ID for determinism.
func GTP(ctx context.Context, in *netsim.Instance) Result {
	// Observation is hoisted once and accumulated in locals; the
	// candidate scans below stay free of observer calls.
	sc := observing(ctx)
	coverStart := time.Now()
	var deployed int64
	defer func() {
		sc.count("deployments", deployed)
		sc.phase("cover", coverStart)
	}()
	st := netsim.NewState(in, netsim.NewPlan())
	//tdmd:hot
	for !st.Feasible() {
		if canceled(ctx) {
			r := finish(in, st.Plan())
			r.Interrupted = ctx.Err()
			return r
		}
		v, ok := bestCandidate(st, nil)
		if !ok {
			// No vertex covers any unserved flow: cannot happen for
			// valid instances (each flow's own source qualifies), but
			// guard against pathological inputs.
			break
		}
		st.AddBox(v)
		deployed++
	}
	return finish(in, st.Plan())
}

// GTPBudget is the budgeted variant used in the evaluation: it runs
// the same greedy rule but never lets the residual coverage problem
// outgrow the remaining budget. At every step a candidate is admitted
// only if, after deploying it, the still-unserved flows can be covered
// with the middleboxes left (estimated by greedy set cover, an upper
// bound on the optimum). This reproduces the paper's k=2 walk-through
// on Fig. 1, where v2 is forced although v6 has the larger marginal.
//
// Because the feasibility check itself is NP-hard (Theorem 1), the
// guard is conservative: GTPBudget may return ErrInfeasible even when
// some feasible plan exists.
func GTPBudget(ctx context.Context, in *netsim.Instance, k int) (Result, error) {
	return CompletePlan(ctx, in, netsim.NewPlan(), k, nil)
}

// CompletePlan extends a partial deployment to cover every flow within
// a total budget of k middleboxes, never deploying on a banned vertex,
// then spends leftover budget on further decrement. It is the engine
// behind GTPBudget (empty base) and the failure-repair path (base =
// surviving boxes, banned = failed servers).
func CompletePlan(ctx context.Context, in *netsim.Instance, base netsim.Plan, k int, banned map[graph.NodeID]bool) (Result, error) {
	if err := validateBudget(k); err != nil {
		return Result{}, err
	}
	if base.Size() > k {
		return Result{}, fmt.Errorf("placement: base plan already exceeds budget %d: %w", k, ErrInfeasible)
	}
	sc := observing(ctx)
	var deployed int64
	defer func() { sc.count("deployments", deployed) }()
	coverStart := time.Now()
	st := netsim.NewState(in, base)
	// The banned set is flattened to a vertex-indexed slice once per
	// solve: the budget guard probes it for every (candidate, cover
	// pick) pair, which is O(|V|²) lookups per greedy round.
	bannedFlat := make([]bool, in.G.NumNodes())
	for v, bad := range banned {
		if bad && int(v) >= 0 && int(v) < len(bannedFlat) {
			bannedFlat[v] = true
		}
	}
	// The guard closures are hoisted out of the greedy loops (one
	// allocation per solve, not per round); the cover guard reads the
	// remaining budget through the captured variable.
	remaining := 0 // budget left after the next pick; set each round
	coverGuard := func(v graph.NodeID) bool {
		if bannedFlat[v] {
			return false
		}
		return greedyCoverSize(st, v, bannedFlat) <= remaining
	}
	//tdmd:hot
	for st.Size() < k && !st.Feasible() {
		if canceled(ctx) {
			// Interrupted before coverage: no feasible plan to return.
			r := finish(in, st.Plan())
			r.Interrupted = ctx.Err()
			return r, interruptedErr(ctx)
		}
		remaining = k - st.Size() - 1
		v, ok := bestCandidate(st, coverGuard)
		if !ok {
			return Result{}, ErrInfeasible
		}
		st.AddBox(v)
		deployed++
	}
	if !st.Feasible() {
		return Result{}, ErrInfeasible
	}
	sc.phase("cover", coverStart)
	// Spend any leftover budget on further decrement (pure gain).
	// Coverage is already achieved here, so an interruption returns
	// the feasible plan built so far (anytime semantics).
	spendStart := time.Now()
	defer func() { sc.phase("spend", spendStart) }()
	spendGuard := func(v graph.NodeID) bool { return !bannedFlat[v] }
	//tdmd:hot
	for st.Size() < k {
		if canceled(ctx) {
			r := finishBudget(in, st.Plan(), k)
			r.Interrupted = ctx.Err()
			return r, nil
		}
		v, ok := bestCandidate(st, spendGuard)
		if !ok || st.MarginalGain(v) <= 0 {
			break
		}
		st.AddBox(v)
		deployed++
	}
	return finishBudget(in, st.Plan(), k), nil
}

// GTPLazy is GTP accelerated by lazy evaluation: because d(P) is
// submodular (Theorem 2), a vertex's marginal from an earlier round
// upper-bounds its current marginal, so stale heap entries only ever
// overestimate. The plan produced is identical to GTP's.
func GTPLazy(ctx context.Context, in *netsim.Instance) Result {
	sc := observing(ctx)
	coverStart := time.Now()
	var deployed int64
	defer func() {
		sc.count("deployments", deployed)
		sc.phase("cover", coverStart)
	}()
	st := netsim.NewState(in, netsim.NewPlan())
	heap := pq.NewMax[graph.NodeID]()
	for _, v := range in.G.Nodes() {
		heap.Push(v, st.MarginalGain(v))
	}
	// One refresh buffer for the whole solve: popBestLazy can pop at
	// most every heap entry, so |V| capacity means the per-deployment
	// refresh loop never grows a slice.
	scratch := make([]lazyCand, 0, in.G.NumNodes())
	//tdmd:hot
	for !st.Feasible() && heap.Len() > 0 {
		if canceled(ctx) {
			r := finish(in, st.Plan())
			r.Interrupted = ctx.Err()
			return r
		}
		v, ok := popBestLazy(st, heap, scratch)
		if !ok {
			break
		}
		st.AddBox(v)
		deployed++
	}
	return finish(in, st.Plan())
}

// lazyCand is one refreshed heap entry inside popBestLazy.
type lazyCand struct {
	v       graph.NodeID
	gain    float64
	covered int
}

// popBestLazy extracts the true-best vertex from a heap of possibly
// stale marginals, reproducing GTP's exact tie-breaking: among all
// vertices whose refreshed marginal equals the maximum, prefer more
// unserved flows covered, then the smaller ID. scratch is a caller-
// owned refresh buffer (reused across calls, overwritten every call).
//
//tdmd:hot
func popBestLazy(st *netsim.State, heap *pq.Heap[graph.NodeID], scratch []lazyCand) (graph.NodeID, bool) {
	fresh := scratch[:0]
	best := math.Inf(-1)
	// Pop while a stale entry could still beat or tie the best fresh
	// value (stale priorities never underestimate, by submodularity).
	for heap.Len() > 0 {
		_, stalePri, _ := heap.Peek()
		if stalePri < best {
			break
		}
		v, _, _ := heap.Pop()
		g := st.MarginalGain(v)
		fresh = append(fresh, lazyCand{v, g, st.UnservedCovered(v)})
		if g > best {
			best = g
		}
	}
	chosen := lazyCand{v: graph.Invalid, covered: -1}
	for _, c := range fresh {
		if c.gain < best {
			continue
		}
		if chosen.v == graph.Invalid || c.covered > chosen.covered ||
			(c.covered == chosen.covered && c.v < chosen.v) {
			chosen = c
		}
	}
	// Re-insert the losers with their refreshed values.
	for _, c := range fresh {
		if c.v != chosen.v {
			heap.Push(c.v, c.gain)
		}
	}
	if chosen.v == graph.Invalid || (best <= 0 && chosen.covered == 0) {
		return graph.Invalid, false
	}
	return chosen.v, true
}

// bestCandidate returns the undeployed vertex with the maximum
// marginal decrement among those passing the guard (nil means no
// guard), breaking ties toward more unserved flows covered, then the
// smaller ID. ok is false when no vertex improves the plan: positive
// marginal, or coverage of at least one unserved flow. Scores come
// from the state's per-vertex cache, so a round after a deployment
// recomputes only the vertices the deployment actually affected.
//
//tdmd:hot
func bestCandidate(st *netsim.State, guard func(graph.NodeID) bool) (graph.NodeID, bool) {
	best := graph.Invalid
	bestGain := math.Inf(-1)
	bestCovered := -1
	// Index scan instead of G.Nodes(): IDs are dense, the order is the
	// same, and the candidate loop stays allocation-free.
	n := st.Instance().G.NumNodes()
	for v := graph.NodeID(0); int(v) < n; v++ {
		if st.Has(v) {
			continue
		}
		if guard != nil && !guard(v) {
			continue
		}
		gain := st.MarginalGain(v)
		covered := st.UnservedCovered(v)
		// Ordered comparison instead of float ==: strictly larger gain
		// wins, strictly smaller loses, exact ties fall through to the
		// coverage and vertex-ID keys.
		switch {
		case gain > bestGain:
			best, bestGain, bestCovered = v, gain, covered
		case gain < bestGain:
			// keep incumbent
		case covered > bestCovered || (covered == bestCovered && v < best):
			best, bestGain, bestCovered = v, gain, covered
		}
	}
	if best == graph.Invalid || (bestGain <= 0 && bestCovered == 0) {
		return graph.Invalid, false
	}
	return best, true
}

// greedyCoverSize estimates how many extra middleboxes (beyond the
// current plan and the tentative vertex v) are needed to serve the
// remaining flows, using greedy set cover over per-vertex coverage
// bitsets. The estimate upper-bounds the true optimum, so admitting a
// candidate when the estimate fits the budget is always safe. The
// state keeps the unserved set as a bitset (rebuilt at most once per
// mutation), so the guard starts from a clone instead of re-deriving
// it from an allocation (see the BenchmarkAblationBudgetGuard history
// in DESIGN.md).
//
//tdmd:hot
func greedyCoverSize(st *netsim.State, v graph.NodeID, banned []bool) int {
	in := st.Instance()
	unserved := st.UnservedSet().Clone()
	unserved.AndNot(in.CoverSet(v))
	boxes := 0
	n := in.G.NumNodes()
	for unserved.Any() {
		best := graph.Invalid
		bestCnt := 0
		for w := graph.NodeID(0); int(w) < n; w++ {
			if st.Has(w) || w == v || banned[w] {
				continue
			}
			if cnt := unserved.IntersectCount(in.CoverSet(w)); cnt > bestCnt {
				best, bestCnt = w, cnt
			}
		}
		if best == graph.Invalid {
			return int(^uint(0) >> 1) // remaining flows uncoverable
		}
		unserved.AndNot(in.CoverSet(best))
		boxes++
	}
	return boxes
}
