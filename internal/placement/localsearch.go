package placement

import (
	"context"
	"math/rand"
	"time"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
)

// LocalSearch refines a feasible plan by 1-swaps: repeatedly replace
// one deployed vertex with one undeployed vertex when the exchange
// lowers total bandwidth while preserving feasibility, until no swap
// improves (a local optimum). Greedy solutions are the usual seed —
// submodular greedy is (1−1/e)-bounded but rarely tight, and a swap
// pass often recovers part of the gap at polynomial cost
// (O(rounds · |P| · |V|) plan evaluations).
//
// The result is never worse than the seed; the plan size never
// changes.
func LocalSearch(ctx context.Context, in *netsim.Instance, seed netsim.Plan, maxRounds int) Result {
	if !in.Feasible(seed) {
		// Refuse to "improve" an infeasible plan into a feasible-looking
		// score; return it scored as-is.
		return finish(in, seed)
	}
	if maxRounds <= 0 {
		maxRounds = 64
	}
	// λ > 1: destination placement is already per-flow optimal, so a
	// swap can never improve a feasible plan; return the seed scored.
	if in.Lambda > 1 {
		return finish(in, seed)
	}
	// Every swap probe is a Remove+Add delta on the incremental state,
	// exactly revertible, touching only the flows through the two
	// mutated vertices.
	sc := observing(ctx)
	refineStart := time.Now()
	var rounds, swaps int64
	defer func() {
		sc.count("rounds", rounds)
		sc.count("swaps", swaps)
		sc.phase("refine", refineStart)
	}()
	st := netsim.NewState(in, seed)
	emitInc := sc.wantsIncumbents()
	n := in.G.NumNodes()
	// One snapshot buffer reused across rounds: AppendVertices reads
	// the state's flat deployment mirror in increasing vertex order —
	// the same order Plan().Vertices() yields, without the per-round
	// map clone and sort.
	verts := make([]graph.NodeID, 0, st.Size())
	for round := 0; round < maxRounds; round++ {
		improved := false
		rounds++
		verts = st.AppendVertices(verts[:0])
		//tdmd:hot
		for _, out := range verts {
			// Poll at swap boundaries: the state always holds a feasible
			// plan here, so an interruption returns best-so-far within
			// one out-vertex scan.
			if canceled(ctx) {
				r := finish(in, st.Plan())
				r.Interrupted = ctx.Err()
				return r
			}
			curBW := st.Bandwidth()
			bestIn := graph.Invalid
			bestBW := curBW
			st.RemoveBox(out)
			for v := graph.NodeID(0); int(v) < n; v++ {
				if v == out || st.Has(v) {
					continue
				}
				st.AddBox(v)
				if st.Feasible() && st.Bandwidth() < bestBW-1e-12 {
					bestBW = st.Bandwidth()
					bestIn = v
				}
				st.RemoveBox(v)
			}
			if bestIn != graph.Invalid {
				st.AddBox(bestIn)
				improved = true
				swaps++
			} else {
				st.AddBox(out) // revert
			}
		}
		if improved && emitInc {
			// One snapshot per improving round, not per swap: the plan
			// here is always feasible, and the round boundary keeps the
			// clone out of the swap-probe hot loop (and out of the
			// unobserved path entirely, see wantsIncumbents).
			sc.incumbent(st.Plan(), st.Bandwidth())
		}
		if !improved {
			break
		}
	}
	// Score the final plan from scratch: incremental float deltas are
	// exact enough to rank swaps but the reported value must be the
	// model's own.
	return finish(in, st.Plan())
}

// GTPWithLocalSearch chains the budgeted greedy with a swap pass — the
// recommended general-topology pipeline when a few extra milliseconds
// buy bandwidth. The swap pass runs under LocalSearch's default sweep
// cap.
func GTPWithLocalSearch(ctx context.Context, in *netsim.Instance, k int) (Result, error) {
	seedRes, err := GTPBudget(ctx, in, k)
	if err != nil {
		return seedRes, err
	}
	if seedRes.Interrupted != nil {
		// The greedy itself was cut short; skip the swap pass.
		return seedRes, nil
	}
	return LocalSearch(ctx, in, seedRes.Plan, 0), nil
}

// MultiStartLocalSearch escapes 1-swap local optima by restarting the
// swap pass from several seeds: the greedy plan plus starts−1 random
// feasible plans. Returns the best local optimum found. Cost scales
// linearly in starts; the greedy seed alone (starts = 1) equals
// GTPWithLocalSearch.
func MultiStartLocalSearch(ctx context.Context, in *netsim.Instance, k, starts int, rng *rand.Rand) (Result, error) {
	if starts < 1 {
		return Result{}, badOptions("multistart-ls", "needs starts >= 1, got %d", starts)
	}
	sc := observing(ctx)
	var started int64 = 1 // the greedy seed
	defer func() { sc.count("starts", started) }()
	best, err := GTPWithLocalSearch(ctx, in, k)
	if err != nil {
		return Result{}, err
	}
	if best.Feasible {
		sc.incumbent(best.Plan, best.Bandwidth)
	}
	for s := 1; s < starts; s++ {
		if canceled(ctx) {
			best.Interrupted = ctx.Err()
			return best, nil
		}
		started++
		seed, err := RandomPlacement(ctx, in, k, rng)
		if err != nil {
			continue // random seeding can fail where greedy succeeded
		}
		if r := LocalSearch(ctx, in, seed.Plan, 0); r.Feasible && r.Bandwidth < best.Bandwidth {
			best = r
			sc.incumbent(best.Plan, best.Bandwidth)
		}
	}
	return best, nil
}
