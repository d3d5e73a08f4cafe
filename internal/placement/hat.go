package placement

import (
	"container/heap"
	"context"
	"time"

	"tdmd/internal/graph"
	"tdmd/internal/lca"
	"tdmd/internal/netsim"
)

// MergeTrace reports one HAT merge for observability.
type MergeTrace struct {
	A, B, LCA graph.NodeID
	Cost      float64
}

// HAT is the paper's Heuristic Algorithm for Trees (Alg. 2): start
// with a middlebox on every flow-sourcing leaf (the consumption-
// minimal deployment) and, while more than k middleboxes remain,
// merge the pair (v_i, v_j) whose replacement by a single middlebox on
// LCA(v_i, v_j) increases total bandwidth the least. The pairwise
// merge costs Δb(i, j) live in one min-heap of pair entries, each
// stamped with its endpoints' merge counts when it was priced. A merge
// bumps the stamps of v_i, v_j and the LCA and pushes the LCA's pairs;
// a popped entry whose stamps are out of date is dropped. Every current
// pair thus has exactly one live entry.
//
// For a flow served at vertex v on a root-destination tree,
// l_v(f) = depth(v), so moving the middleboxes of v_i and v_j (serving
// aggregate rates R_i and R_j) up to their LCA costs
//
//	Δb(i, j) = (1−λ)·( R_i·(depth_i − depth_lca) + R_j·(depth_j − depth_lca) ).
//
// The heap orders entries by (cost, A, B), so exact cost ties break
// toward the lexicographically smallest pair. The final bandwidth is
// recomputed exactly by netsim, so any drift in the incremental
// bookkeeping (possible when a merge target is an ancestor of a third
// deployed vertex) never mis-scores the result.
// HAT is fail-fast under cancellation: a partially-merged plan is
// above budget and therefore useless, so an interrupted run returns
// the context error.
func HAT(ctx context.Context, in *netsim.Instance, t *graph.Tree, k int) (Result, error) {
	r, _, err := hat(ctx, in, t, k, false)
	return r, err
}

// HATWithTrace runs HAT and additionally returns the sequence of
// merges performed, in order; the walkthrough tests and examples use
// it to show the algorithm's decisions.
func HATWithTrace(ctx context.Context, in *netsim.Instance, t *graph.Tree, k int) (Result, []MergeTrace, error) {
	return hat(ctx, in, t, k, true)
}

func hat(ctx context.Context, in *netsim.Instance, t *graph.Tree, k int, wantTrace bool) (Result, []MergeTrace, error) {
	if err := validateBudget(k); err != nil {
		return Result{}, nil, err
	}
	if err := checkTreeWorkload(in, t); err != nil {
		return Result{}, nil, err
	}
	oracle := lca.NewSparse(t)

	// Initial plan: a middlebox on every leaf that sources traffic.
	// (Leaves without flows would only waste budget; see DESIGN.md.)
	n := in.G.NumNodes()
	served := make([]float64, n) // aggregate served rate per deployed vertex
	stamp := make([]uint32, n)   // merges that moved each vertex's box
	var plan netsim.Plan
	for _, f := range in.Flows() {
		served[f.Src()] += float64(f.Rate)
		plan.Add(f.Src())
	}

	price := func(x, y graph.NodeID) pairEntry {
		if x > y {
			x, y = y, x
		}
		l := oracle.LCA(x, y)
		up := float64(t.Depth(x)-t.Depth(l))*served[x] + float64(t.Depth(y)-t.Depth(l))*served[y]
		return pairEntry{cost: (1 - in.Lambda) * up, a: x, b: y, stampA: stamp[x], stampB: stamp[y]}
	}

	// L initial boxes price L(L−1)/2 pairs, and the merges push fewer
	// than that again, so the heap never outgrows L² entries.
	vs := plan.Vertices()
	pairs := make(pairHeap, 0, len(vs)*len(vs))
	for i, x := range vs {
		for _, y := range vs[i+1:] {
			pairs = append(pairs, price(x, y))
		}
	}
	heap.Init(&pairs)

	sc := observing(ctx)
	mergeStart := time.Now()
	var merges int64
	defer func() {
		sc.count("merges", merges)
		sc.phase("merge", mergeStart)
	}()
	var trace []MergeTrace
	for plan.Size() > k {
		if canceled(ctx) {
			return Result{}, trace, interruptedErr(ctx)
		}
		if pairs.Len() == 0 {
			// Above budget with fewer than two middleboxes left: only
			// possible for k < 1, which validateBudget excluded.
			return Result{}, nil, ErrInfeasible
		}
		e := pairs.pop()
		if e.stampA != stamp[e.a] || e.stampB != stamp[e.b] {
			continue // priced before a merge moved one of its boxes
		}
		merges++
		vi, vj := e.a, e.b
		l := oracle.LCA(vi, vj)
		if wantTrace {
			trace = append(trace, MergeTrace{A: vi, B: vj, LCA: l, Cost: e.cost})
		}
		merged := served[vi] + served[vj]
		served[vi], served[vj] = 0, 0
		plan.Remove(vi)
		plan.Remove(vj)
		served[l] += merged // l may coincide with vi (ancestor merges) or be already deployed
		plan.Add(l)
		stamp[vi]++
		stamp[vj]++
		stamp[l]++
		// Price the LCA's pairs; all other pair costs are unaffected
		// because their endpoints' served rates did not change.
		vs = plan.AppendVertices(vs[:0])
		for _, other := range vs {
			if other != l {
				pairs.push(price(l, other))
			}
		}
	}
	return finishBudget(in, plan, k), trace, nil
}

// pairEntry prices merging the boxes on a and b (a < b). It is live
// while stampA and stampB equal the vertices' current stamps.
type pairEntry struct {
	cost           float64
	a, b           graph.NodeID
	stampA, stampB uint32
}

// pairHeap is a container/heap min-heap of pair entries ordered by
// (cost, a, b).
type pairHeap []pairEntry

func (h pairHeap) Len() int      { return len(h) }
func (h pairHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h pairHeap) Less(i, j int) bool {
	x, y := h[i], h[j]
	if x.cost != y.cost {
		return x.cost < y.cost
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}
func (h *pairHeap) Push(e any) { *h = append(*h, e.(pairEntry)) }

// Pop drops the last slot without returning it: pop reads the minimum
// before heap.Pop moves it there, so no entry is boxed into an any.
func (h *pairHeap) Pop() any {
	*h = (*h)[:len(*h)-1]
	return nil
}

// push adds e; it is heap.Push without boxing e into an any.
func (h *pairHeap) push(e pairEntry) {
	*h = append(*h, e)
	heap.Fix(h, len(*h)-1)
}

// pop removes and returns the minimum entry.
func (h *pairHeap) pop() pairEntry {
	e := (*h)[0]
	heap.Pop(h)
	return e
}
