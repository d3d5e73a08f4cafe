package placement

import (
	"context"
	"fmt"
	"math"
	"time"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
)

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
	// solve: the ranking scans and the guard's cover picks probe it
	// once per vertex.
	n := in.G.NumNodes()
	bannedFlat := make([]bool, n)
	for v, bad := range banned {
		if bad && int(v) >= 0 && int(v) < n {
			bannedFlat[v] = true
		}
	}
	// skip is bannedFlat plus the candidates the guard rejected this
	// round; trail holds the guard's tentative cover boxes. Both are
	// allocated once per solve.
	skip := make([]bool, n)
	trail := make([]graph.NodeID, 0, min(k, n))
	//tdmd:hot
	for st.Size() < k && !st.Feasible() {
		if canceled(ctx) {
			// Interrupted before coverage: no feasible plan to return.
			r := finish(in, st.Plan())
			r.Interrupted = ctx.Err()
			return r, interruptedErr(ctx)
		}
		// (gain, covered, −id) is a total order and the guard only
		// filters, so the first candidate that passes, taken in that
		// order, is the best guarded candidate: guard the winner and
		// re-rank without it on rejection.
		copy(skip, bannedFlat)
		remaining := k - st.Size() - 1
		v, ok := bestCandidate(st, skip)
		for ok && !coverFits(st, v, bannedFlat, remaining, trail) {
			skip[v] = true
			v, ok = bestCandidate(st, skip)
		}
		if !ok || !improves(st, v) {
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
	//tdmd:hot
	for st.Size() < k {
		if canceled(ctx) {
			r := finishBudget(in, st.Plan(), k)
			r.Interrupted = ctx.Err()
			return r, nil
		}
		v, ok := bestCandidate(st, bannedFlat)
		if !ok || st.MarginalGain(v) <= 0 {
			break
		}
		st.AddBox(v)
		deployed++
	}
	return finishBudget(in, st.Plan(), k), nil
}

// GTPLazy is the paper's Algorithm 1 (General Topology Placement):
// starting from the empty plan, repeatedly deploy on the vertex with
// the maximum marginal decrement d_P(v) until every flow is served.
// The number of middleboxes k is an output, not an input; Theorem 3
// gives the (1 − 1/e) decrement guarantee for that k.
//
// It evaluates marginals lazily: because d(P) is submodular
// (Theorem 2), a vertex's marginal from an earlier round upper-bounds
// its current marginal, so stale heap entries only ever overestimate.
// The greedy runs on netsim.State, which updates only the flows
// through each chosen vertex. Ties on the marginal decrement are
// broken toward the vertex covering more still-unserved flows (which
// lets the greedy terminate once positive gains are exhausted), then
// toward the smaller vertex ID; the plan is identical to that of GTP,
// the eager rescan kept in the tests as its reference.
func GTPLazy(ctx context.Context, in *netsim.Instance) Result {
	sc := observing(ctx)
	coverStart := time.Now()
	var deployed int64
	defer func() {
		sc.count("deployments", deployed)
		sc.phase("cover", coverStart)
	}()
	st := netsim.NewState(in, netsim.NewPlan())
	heap := newLazyHeap(in.G.NumNodes(), st.MarginalGain)
	// One refresh buffer for the whole solve: popBestLazy can pop at
	// most every heap entry, so |V| capacity means the per-deployment
	// refresh loop never grows a slice. The heap only gets back what
	// popBestLazy popped, so it never regrows either.
	scratch := make([]lazyCand, 0, in.G.NumNodes())
	//tdmd:hot
	for !st.Feasible() && len(heap) > 0 {
		if canceled(ctx) {
			r := finish(in, st.Plan())
			r.Interrupted = ctx.Err()
			return r
		}
		v, ok := popBestLazy(st, &heap, scratch)
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
func popBestLazy(st *netsim.State, heap *lazyHeap, scratch []lazyCand) (graph.NodeID, bool) {
	fresh := scratch[:0]
	best := math.Inf(-1)
	// Pop while a stale entry could still beat or tie the best fresh
	// value (stale priorities never underestimate, by submodularity).
	// Entries with equal stale gains are popped all or none, so the
	// popped set does not depend on the heap's layout.
	for len(*heap) > 0 && !((*heap)[0].gain < best) {
		v := heap.pop()
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
			heap.push(lazyEntry{c.gain, c.v})
		}
	}
	if chosen.v == graph.Invalid || (best <= 0 && chosen.covered == 0) {
		return graph.Invalid, false
	}
	return chosen.v, true
}

// lazyHeap is GTPLazy's max-heap of (stale gain, vertex) entries. It
// keeps no position index: the lazy greedy only pushes and pops.
type lazyHeap []lazyEntry

type lazyEntry struct {
	gain float64
	v    graph.NodeID
}

// newLazyHeap holds vertices 0..n-1 at their gains.
func newLazyHeap(n int, gain func(graph.NodeID) float64) lazyHeap {
	h := make(lazyHeap, n)
	for v := range h {
		h[v] = lazyEntry{gain(graph.NodeID(v)), graph.NodeID(v)}
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// push adds e. The heap never holds more entries than it was made
// with, so it grows within its capacity.
//
//tdmd:hot
func (h *lazyHeap) push(e lazyEntry) {
	*h = (*h)[:len(*h)+1]
	s, i := *h, len(*h)-1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].gain >= e.gain {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

// pop removes the top entry and returns its vertex.
//
//tdmd:hot
func (h *lazyHeap) pop() graph.NodeID {
	s := *h
	top, last := s[0].v, len(s)-1
	s[0] = s[last]
	*h = s[:last]
	h.down(0)
	return top
}

// down moves entry i toward the leaves until no child outranks it.
//
//tdmd:hot
func (h lazyHeap) down(i int) {
	for {
		best, l := i, 2*i+1
		if l < len(h) && h[l].gain > h[best].gain {
			best = l
		}
		if r := l + 1; r < len(h) && h[r].gain > h[best].gain {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// bestCandidate returns the undeployed vertex with the maximum
// marginal decrement among those not marked in skip (nil skips
// nothing), breaking ties toward more unserved flows covered, then the
// smaller ID. ok is false only when every vertex is deployed or
// skipped; whether the winner improves the plan is the caller's check
// (improves). Scores come from the state's per-vertex cache, so a
// round after a deployment recomputes only the vertices the deployment
// actually affected.
//
//tdmd:hot
func bestCandidate(st *netsim.State, skip []bool) (graph.NodeID, bool) {
	best := graph.Invalid
	bestGain := math.Inf(-1)
	bestCovered := -1
	// Index scan instead of G.Nodes(): IDs are dense, the order is the
	// same, and the candidate loop stays allocation-free.
	n := st.Instance().G.NumNodes()
	for v := graph.NodeID(0); int(v) < n; v++ {
		if st.Has(v) || (skip != nil && skip[v]) {
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
	return best, best != graph.Invalid
}

// improves reports whether deploying on v improves the plan: a
// positive marginal, or coverage of at least one unserved flow.
func improves(st *netsim.State, v graph.NodeID) bool {
	return st.MarginalGain(v) > 0 || st.UnservedCovered(v) > 0
}

// coverFits is the budget guard: it reports whether, after deploying
// v, greedy set cover serves the remaining flows with at most limit
// more middleboxes, never picking a banned vertex. The greedy estimate
// upper-bounds the optimum, so admitting v when it fits is always
// safe. The cover runs on the solver's own state — v and each
// mostCovering pick are deployed, then removed in reverse order — and
// a State is a pure function of its plan, so st is left exactly as it
// was. Paths are simple, so UnservedCovered(w) is the number of
// unserved flows w's cover would serve. trail is caller-owned scratch
// with capacity for limit+1 vertices.
//
//tdmd:hot
func coverFits(st *netsim.State, v graph.NodeID, banned []bool, limit int, trail []graph.NodeID) bool {
	trail = append(trail[:0], v)
	st.AddBox(v)
	fits := true
	for !st.Feasible() {
		w := mostCovering(st, banned)
		if w == graph.Invalid || len(trail) > limit {
			// Uncoverable, or limit more boxes are already spent.
			fits = false
			break
		}
		trail = append(trail, w)
		st.AddBox(w)
	}
	for i := len(trail) - 1; i >= 0; i-- {
		st.RemoveBox(trail[i])
	}
	return fits
}
