package placement

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
)

// BranchAndBound's safety caps: a search that outlives either returns
// its incumbent with Result.Optimal=false.
const (
	bnbTimeout   = 30 * time.Second
	bnbNodeLimit = 10_000_000
)

// BranchAndBound finds the exact TDMD optimum with best-first search
// over include/exclude decisions on vertices, pruned by a submodular
// bound: by Theorem 2 the decrement of any completion of a partial
// plan P with budget r more boxes is at most d(P) plus the sum of the
// r largest current marginals among the still-allowed vertices. That
// bound lets exact search reach the paper's evaluation sizes (22-30
// vertices), where the 2^|V| exhaustive enumeration cannot go — so the
// heuristics' optimality gaps in EXPERIMENTS.md are measured against
// true optima, not proxies.
//
// Requires a traffic-diminishing instance (λ ≤ 1); the bound direction
// flips for expanding middleboxes.
//
// It is an anytime exact solver that minimizes b(P) subject to
// |P| <= k: on cancellation, deadline, the bnbTimeout safety cap or
// the bnbNodeLimit search cap the best incumbent found so far is
// returned with Result.Optimal=false; an exhausted search space
// certifies the optimum (Optimal=true). Callers wanting a shorter cap
// put a deadline on ctx.
func BranchAndBound(ctx context.Context, in *netsim.Instance, k int) (Result, error) {
	if err := validateBudget(k); err != nil {
		return Result{}, err
	}
	if in.Lambda > 1 {
		return Result{}, fmt.Errorf("placement: BranchAndBound requires λ ≤ 1, got %v", in.Lambda)
	}
	// The safety timeout rides on the caller's context so one Done
	// channel carries both; whichever deadline fires first wins.
	ctx, cancel := context.WithTimeout(ctx, bnbTimeout)
	defer cancel()

	n := in.G.NumNodes()
	if k > n {
		k = n
	}
	// The whole search runs on one incremental state: include/exclude
	// decisions are AddBox/RemoveBox deltas, the bound's marginals come
	// from the per-vertex score cache (only vertices the last decision
	// affected are recomputed), and backtracking reverts exactly.
	st := netsim.NewState(in, netsim.NewPlan())
	// Branch order: vertices by empty-plan marginal, descending —
	// high-impact decisions first tighten the bound fastest. Vertices
	// covering no flow are useless and dropped outright.
	type vcand struct {
		v    graph.NodeID
		gain float64
	}
	var order []vcand
	for v := graph.NodeID(0); int(v) < n; v++ {
		if len(in.Through(v)) == 0 {
			continue
		}
		order = append(order, vcand{v, st.MarginalGain(v)})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].gain > order[j].gain {
			return true
		}
		if order[i].gain < order[j].gain {
			return false
		}
		return order[i].v < order[j].v
	})

	// Incumbent: seed with the greedy solution so pruning bites
	// immediately.
	incumbent := Result{Bandwidth: math.Inf(1)}
	if seed, err := GTPBudget(ctx, in, k); err == nil && seed.Interrupted == nil {
		incumbent = LocalSearch(ctx, in, seed.Plan, 0)
		incumbent.Interrupted = nil
	}

	sc := observing(ctx)
	searchStart := time.Now()
	var incumbentUpdates int64
	nodes := 0
	defer func() {
		sc.count("branch_nodes", int64(nodes))
		sc.count("incumbent_updates", incumbentUpdates)
		sc.phase("search", searchStart)
	}()
	timedOut := false
	// DFS with pruning. Search state: index into order, plus the
	// incremental allocation state standing in for the current plan.
	// The gains scratch is reused across nodes: each node finishes with
	// it before recursing.
	gains := make([]float64, 0, len(order))
	var rec func(idx, used int)
	rec = func(idx, used int) {
		if timedOut {
			return
		}
		nodes++
		if nodes > bnbNodeLimit || nodes%ctxCheckStride == 0 && canceled(ctx) {
			timedOut = true
			return
		}
		// Exact (flow-order) recomputation from the maintained
		// allocation: bit-identical to TotalBandwidth, so incumbent and
		// bound decisions match the full-recompute search exactly.
		bw := st.ExactBandwidth()
		if st.Feasible() && bw < incumbent.Bandwidth-1e-12 {
			incumbent = Result{Plan: st.Plan(), Bandwidth: bw, Feasible: true}
			incumbentUpdates++
			sc.incumbent(incumbent.Plan, bw)
		}
		if idx == len(order) || used == k {
			return
		}
		// Submodular bound: best possible decrement from here is d(cur)
		// plus the (k-used) largest marginals of the remaining vertices.
		remaining := k - used
		gains = gains[:0]
		for _, c := range order[idx:] {
			if g := st.MarginalGain(c.v); g > 0 {
				gains = append(gains, g)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(gains)))
		bound := bw
		for i := 0; i < remaining && i < len(gains); i++ {
			bound -= gains[i]
		}
		// Even the optimistic completion cannot beat the incumbent: if
		// the subtree also cannot newly achieve feasibility... it still
		// might (coverage), so only prune on the bandwidth bound when a
		// feasible incumbent exists and the bound cannot improve on it.
		if incumbent.Feasible && bound >= incumbent.Bandwidth-1e-12 {
			return
		}
		v := order[idx].v
		// Include v first (tends to reach good incumbents sooner);
		// RemoveBox reverts the decision exactly on backtrack.
		st.AddBox(v)
		rec(idx+1, used+1)
		st.RemoveBox(v)
		// Exclude v.
		rec(idx+1, used)
	}
	if canceled(ctx) {
		timedOut = true
	} else {
		rec(0, 0)
	}

	incumbent.Optimal = !timedOut
	if timedOut {
		incumbent.Interrupted = ctx.Err()
	}
	if !incumbent.Feasible {
		if incumbent.Optimal {
			return incumbent, ErrInfeasible
		}
		if err := ctx.Err(); err != nil {
			return incumbent, fmt.Errorf("placement: branch-and-bound interrupted before finding a feasible plan: %w", err)
		}
		return incumbent, fmt.Errorf("placement: branch-and-bound hit its limit before finding a feasible plan: %w", ErrInfeasible)
	}
	return incumbent, nil
}
