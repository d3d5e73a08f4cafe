package netsim

import (
	"math"

	"tdmd/internal/bitset"
	"tdmd/internal/graph"
	"tdmd/internal/invariant"
	"tdmd/internal/stats"
)

// State is the incremental allocation engine every placement algorithm
// runs on: it maintains, under single-vertex plan mutations, each
// flow's current serving vertex, the total bandwidth b(P), the set of
// unserved flows, and a per-vertex cache of the greedy scoring keys
// (marginal decrement d_P({v}) and unserved-flows-covered count).
//
// AddBox and RemoveBox touch only the flows whose paths traverse the
// mutated vertex (via the instance's through index), and invalidate
// cached scores only for the vertices on those flows' paths — so a
// greedy round after a deployment costs O(affected flows · path length)
// plus an O(|V|) scan of mostly cached scores, where the from-scratch
// pattern pays O(|F|·|P|) for the re-allocation alone. Cached scores
// are recomputed exactly as Instance.MarginalDecrement computes them
// (same flow order, same float operations), so a solver driven by
// State makes bit-identical decisions to one driven by full
// re-allocation.
//
// The state after any AddBox/RemoveBox sequence is a pure function of
// the resulting plan, so mutations are exactly revertible — the
// branch-and-bound backtracks through RemoveBox, and local search
// probes swaps as Remove+Add+revert.
//
// Both middlebox regimes are supported: traffic-diminishing (λ ≤ 1,
// serving vertex = nearest the source) and traffic-expanding (λ > 1,
// nearest the destination).
//
// Concurrency contract: the owning Instance stays read-only and may be
// shared freely, but a State is single-goroutine for mutations — each
// concurrent solve (e.g. each service pool worker) builds its own.
//
// With invariants enabled (see internal/invariant) every mutation
// cross-checks the incremental state against the full Allocate /
// TotalBandwidth recomputation, so any solver running on State is
// self-verifying on every solve.
type State struct {
	in *Instance

	// plan is the canonical deployment set. Its membership bitset is
	// reserved to NumNodes at construction, so the mutation and scoring
	// inner loops (AddBox/RemoveBox path scans, VertexScore, the greedy
	// candidate scan via Has) are single bit tests with no reallocation
	// — the Plan itself is the flat representation; there is no mirror.
	plan Plan

	serving      Allocation // serving[i] = vertex serving flow i, or Unserved
	servDown     []int      // downstream count at serving[i]; -1 when unserved
	total        float64    // running b(P), updated by deltas
	unserved     int
	unservedBits *bitset.Set // unserved flow indices, for the budget guard

	// Per-vertex greedy-score cache. fresh[v] holds while no flow
	// through v changed serving state since the last recompute.
	gain  []float64
	cov   []int
	fresh []bool

	// pendingHits batches cache-hit counts locally (plain field, no
	// atomics on the read path) until the next mutation flushes them
	// to the shared stateCacheHits counter; see metrics.go.
	pendingHits int64
}

// NewState builds the incremental state for the given plan. The plan
// is cloned; the caller's copy stays untouched.
func NewState(in *Instance, p Plan) *State {
	s := &State{
		in:           in,
		plan:         p.Clone(),
		serving:      in.Allocate(p),
		servDown:     make([]int, in.NumFlows()),
		unservedBits: bitset.New(in.NumFlows()),
		gain:         make([]float64, in.G.NumNodes()),
		cov:          make([]int, in.G.NumNodes()),
		fresh:        make([]bool, in.G.NumNodes()),
	}
	s.plan.reserve(in.G.NumNodes())
	for i := range s.serving {
		v := s.serving[i]
		s.total += in.FlowBandwidth(i, v)
		if v == Unserved {
			s.servDown[i] = -1
			s.unserved++
			s.unservedBits.Set(i)
		} else {
			s.servDown[i] = in.FlowPath(i).Downstream(v)
		}
	}
	if invariant.Enabled {
		s.verify("NewState")
	}
	statesBuilt.Inc()
	return s
}

// Bandwidth returns the running b(P), maintained by deltas. It can
// drift from the from-scratch sum by float-rounding ULPs after long
// mutation sequences; use ExactBandwidth where decisions must match
// TotalBandwidth bit for bit.
func (s *State) Bandwidth() float64 { return s.total }

// ExactBandwidth recomputes b(P) from the maintained allocation in
// flow order — the identical float operations TotalBandwidth performs,
// without the O(|F|·|P|) re-allocation or its allocations.
//
//tdmd:hot
func (s *State) ExactBandwidth() float64 {
	var total float64
	for i := range s.serving {
		total += s.in.FlowBandwidth(i, s.serving[i])
	}
	return total
}

// Feasible reports whether every flow is served.
func (s *State) Feasible() bool { return s.unserved == 0 }

// UnservedCount returns the number of flows with no middlebox on their
// path.
func (s *State) UnservedCount() int { return s.unserved }

// UnservedSet returns the bitset of unserved flow indices. The set is
// owned by the state and mutated by AddBox/RemoveBox; callers must
// Clone it before modifying or holding it across mutations.
func (s *State) UnservedSet() *bitset.Set { return s.unservedBits }

// Plan returns a copy of the current plan.
func (s *State) Plan() Plan {
	s.flushCacheHits() // solvers extract plans at decision points; a cheap drain site
	return s.plan.Clone()
}

// Has reports whether v currently hosts a middlebox (a single bit
// test on the plan's membership bitset).
//
//tdmd:hot
func (s *State) Has(v graph.NodeID) bool { return s.plan.Has(v) }

// AppendVertices appends the deployed vertices to buf in increasing
// order and returns the extended slice. It is the allocation-free
// counterpart of Plan().Vertices() for hot loops: the plan's vertex
// list is already sorted, so this is one bulk copy.
//
//tdmd:hot
func (s *State) AppendVertices(buf []graph.NodeID) []graph.NodeID {
	return s.plan.AppendVertices(buf)
}

// Size returns |P|.
func (s *State) Size() int { return s.plan.Size() }

// Serving returns flow i's current serving vertex, or Unserved.
func (s *State) Serving(i int) graph.NodeID { return s.serving[i] }

// Instance returns the read-only instance the state evaluates.
func (s *State) Instance() *Instance { return s.in }

// AddBox deploys a middlebox on v and returns the bandwidth delta
// (≤ 0 for a diminishing middlebox). Adding a deployed vertex is a
// no-op. Only flows through v are touched; only vertices on moved
// flows' paths lose their cached scores.
//
//tdmd:hot
func (s *State) AddBox(v graph.NodeID) float64 {
	if s.plan.Has(v) {
		return 0
	}
	s.plan.Add(v)
	stateMutations.Inc()
	s.flushCacheHits()
	expanding := s.in.Lambda > 1
	var delta float64
	for _, fa := range s.in.Through(v) {
		i := fa.Flow
		cur := s.servDown[i] // -1 when unserved
		var moves bool
		if expanding {
			moves = cur < 0 || fa.Downstream < cur
		} else {
			moves = fa.Downstream > cur // unserved (-1) always moves
		}
		if !moves {
			continue
		}
		old := s.in.FlowBandwidth(i, s.serving[i])
		if s.serving[i] == Unserved {
			s.unserved--
			s.unservedBits.Clear(i)
		}
		s.serving[i] = v
		s.servDown[i] = fa.Downstream
		delta += s.in.FlowBandwidth(i, v) - old
		s.invalidatePath(i)
	}
	s.total += delta
	if invariant.Enabled {
		s.verify("AddBox")
	}
	return delta
}

// RemoveBox deletes the middlebox on v and returns the bandwidth delta
// (≥ 0 for a diminishing middlebox). Removing an undeployed vertex is
// a no-op. Each flow v served re-scans its own path once for the best
// remaining middlebox.
//
//tdmd:hot
func (s *State) RemoveBox(v graph.NodeID) float64 {
	if !s.plan.Has(v) {
		return 0
	}
	s.plan.Remove(v)
	stateMutations.Inc()
	s.flushCacheHits()
	expanding := s.in.Lambda > 1
	var delta float64
	for _, fa := range s.in.Through(v) {
		i := fa.Flow
		if s.serving[i] != v {
			continue
		}
		old := s.in.FlowBandwidth(i, v)
		next := Unserved
		path := s.in.FlowPath(i)
		if expanding {
			for j := len(path) - 1; j >= 0; j-- { // last hit: nearest the destination
				if s.plan.Has(path[j]) {
					next = path[j]
					break
				}
			}
		} else {
			for _, u := range path { // first hit: nearest the source
				if s.plan.Has(u) {
					next = u
					break
				}
			}
		}
		s.serving[i] = next
		if next == Unserved {
			s.servDown[i] = -1
			s.unserved++
			s.unservedBits.Set(i)
		} else {
			s.servDown[i] = path.Downstream(next)
		}
		delta += s.in.FlowBandwidth(i, next) - old
		s.invalidatePath(i)
	}
	s.total += delta
	if invariant.Enabled {
		s.verify("RemoveBox")
	}
	return delta
}

// invalidatePath drops the cached scores of every vertex on flow i's
// path — exactly the vertices whose marginal or coverage count can
// have changed when flow i's serving state changed.
//
//tdmd:hot
func (s *State) invalidatePath(i int) {
	for _, u := range s.in.FlowPath(i) {
		s.fresh[u] = false
	}
}

// MarginalGain returns d_P({v}) (Def. 2) for the current plan,
// recomputing from the through index only when some flow through v
// changed serving state since the last query. The value is bit-
// identical to Instance.MarginalDecrement on the equivalent plan and
// allocation. Deployed vertices have zero marginal.
//
//tdmd:hot
func (s *State) MarginalGain(v graph.NodeID) float64 {
	if s.plan.Has(v) {
		return 0
	}
	if s.fresh[v] {
		s.pendingHits++
	} else {
		s.rescore(v)
	}
	if invariant.Enabled {
		// Bit-identity (not epsilon agreement) is the cache's contract:
		// solvers driven by cached marginals must make the exact
		// decisions full recomputation would.
		invariant.Assert(math.Float64bits(s.gain[v]) == math.Float64bits(s.in.MarginalDecrement(s.plan, s.serving, v)),
			"netsim: cached marginal for vertex %d diverged from MarginalDecrement", v)
	}
	return s.gain[v]
}

// UnservedCovered counts the currently unserved flows whose paths
// visit v, cached alongside the marginal.
//
//tdmd:hot
func (s *State) UnservedCovered(v graph.NodeID) int {
	if s.fresh[v] {
		s.pendingHits++
	} else {
		s.rescore(v)
	}
	return s.cov[v]
}

// rescore recomputes and caches v's greedy keys from the through
// index, mirroring Instance.MarginalDecrement's loop exactly (same
// flow order, same float operations) so cached and from-scratch values
// are bit-identical.
//
//tdmd:hot
func (s *State) rescore(v graph.NodeID) {
	stateCacheMisses.Inc() // a miss pays a full through-index scan; the atomic add is noise
	s.gain[v], s.cov[v] = s.VertexScore(v)
	s.fresh[v] = true
}

// VertexScore computes v's greedy keys — marginal decrement and
// unserved flows covered — directly from the maintained serving state,
// bypassing and leaving untouched the per-vertex cache. It performs no
// writes, so concurrent calls are safe while no mutation is in flight.
//
//tdmd:hot
func (s *State) VertexScore(v graph.NodeID) (gain float64, covered int) {
	expanding := s.in.Lambda > 1
	for _, fa := range s.in.Through(v) {
		i := fa.Flow
		rate := s.in.rates[i]
		served := s.serving[i] != Unserved
		cur := 0 // gain baseline: 0 for unserved (Def. 2)
		if served {
			cur = s.servDown[i]
		} else {
			covered++
		}
		var moves bool
		if expanding {
			moves = !served || fa.Downstream < cur
		} else {
			moves = fa.Downstream > cur
		}
		if moves {
			gain += float64(rate) * (1 - s.in.Lambda) * float64(fa.Downstream-cur)
		}
	}
	if s.plan.Has(v) {
		gain = 0 // deployed vertices have no marginal; coverage still counts
	}
	return gain, covered
}

// verify cross-checks the incremental state against the full model
// recomputation: the maintained allocation must equal Allocate's
// output exactly, the unserved bookkeeping must match it, and the
// running total must agree with TotalBandwidth up to float rounding.
// Runs only with invariants enabled.
func (s *State) verify(op string) {
	alloc := s.in.Allocate(s.plan)
	unserved := 0
	for i := range alloc {
		invariant.Assert(s.serving[i] == alloc[i],
			"netsim: %s left flow %d served at %d, full allocation says %d", op, i, s.serving[i], alloc[i])
		if alloc[i] == Unserved {
			unserved++
			invariant.Assert(s.servDown[i] == -1,
				"netsim: %s left unserved flow %d with downstream %d", op, i, s.servDown[i])
			invariant.Assert(s.unservedBits.Test(i),
				"netsim: %s lost flow %d from the unserved set", op, i)
		} else {
			invariant.Assert(s.servDown[i] == s.in.FlowPath(i).Downstream(alloc[i]),
				"netsim: %s cached stale downstream %d for flow %d", op, s.servDown[i], i)
			invariant.Assert(!s.unservedBits.Test(i),
				"netsim: %s kept served flow %d in the unserved set", op, i)
		}
	}
	invariant.Assert(s.unserved == unserved,
		"netsim: %s counts %d unserved flows, full allocation says %d", op, s.unserved, unserved)
	want := s.in.TotalBandwidth(s.plan)
	invariant.Assert(stats.ApproxEqual(s.total, want, 1e-9),
		"netsim: %s running bandwidth %v diverged from full recomputation %v", op, s.total, want)
}
