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
// path class's current serving vertex, the decrement d(P), the
// unserved flows, and a per-vertex cache of the greedy scoring keys
// (marginal decrement d_P({v}) and unserved-flows-covered count).
//
// The state works per path class, not per flow: the flows of a class
// share a path, hence a serving vertex, and contribute to every score
// in proportion to their rate. AddBox and RemoveBox touch only the
// classes whose paths traverse the mutated vertex (via the instance's
// through index), and invalidate cached scores only for the vertices
// on those classes' paths — so a greedy round after a deployment costs
// O(affected classes · path length) plus an O(|V|) scan of mostly
// cached scores, where the from-scratch pattern pays O(|F|·|P|) for
// the re-allocation alone.
//
// Scores are exact: the rate-weighted downstream sums behind the
// marginals and the decrement are int64 (the instance guarantees
// Σ r·|p| fits), scaled by (1−λ) once. A cached score is bit-identical
// to Instance.MarginalDecrement, Bandwidth depends only on the plan,
// and no score depends on the order of the flows.
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

	serving  []classServe // per path class: serving vertex and its downstream count
	dec      int64        // Σ rate·down over served classes; b(P) = raw − (1−λ)·dec
	unserved int          // unserved flows: Σ multiplicity over unserved classes

	// unservedBits is the per-flow unserved set, rebuilt from serving
	// on demand (only the budget guard reads it) when stale.
	unservedBits  *bitset.Set
	unservedStale bool

	// Per-vertex greedy-score cache. fresh[v] holds while no class
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
		in:            in,
		plan:          p.Clone(),
		serving:       in.allocateClasses(p),
		unservedStale: true,
		gain:          make([]float64, in.G.NumNodes()),
		cov:           make([]int, in.G.NumNodes()),
		fresh:         make([]bool, in.G.NumNodes()),
	}
	s.plan.reserve(in.G.NumNodes())
	for c, cs := range s.serving {
		pc := &in.classes[c]
		if cs.down < 0 {
			s.unserved += int(pc.mult)
		} else {
			s.dec += pc.rate * int64(cs.down)
		}
	}
	if invariant.Enabled {
		s.verify("NewState")
	}
	statesBuilt.Inc()
	return s
}

// Bandwidth returns b(P) = Σ r_f·|p_f| − (1−λ)·D, where D, the
// rate-weighted downstream sum of the served flows, is maintained
// exactly. The value depends only on the plan, never on the mutation
// history; it can differ from the per-flow sum TotalBandwidth in the
// last bits, so use ExactBandwidth where a value must match
// TotalBandwidth bit for bit.
func (s *State) Bandwidth() float64 {
	return s.in.rawDemand - (1-s.in.Lambda)*float64(s.dec)
}

// ExactBandwidth recomputes b(P) from the maintained allocation in
// flow order — the identical float operations TotalBandwidth performs,
// without the O(|F|·|P|) re-allocation or its allocations.
//
//tdmd:hot
func (s *State) ExactBandwidth() float64 {
	return s.in.sumBandwidth(s.serving)
}

// Feasible reports whether every flow is served.
func (s *State) Feasible() bool { return s.unserved == 0 }

// UnservedCount returns the number of flows with no middlebox on their
// path.
func (s *State) UnservedCount() int { return s.unserved }

// UnservedSet returns the bitset of unserved flow indices. The set is
// owned by the state and rebuilt after AddBox/RemoveBox; callers must
// Clone it before modifying or holding it across mutations.
func (s *State) UnservedSet() *bitset.Set {
	if s.unservedBits == nil {
		s.unservedBits = bitset.New(s.in.NumFlows())
	}
	if s.unservedStale {
		s.unservedBits.Reset()
		for i, c := range s.in.flowClass {
			if s.serving[c].down < 0 {
				s.unservedBits.Set(i)
			}
		}
		s.unservedStale = false
	}
	return s.unservedBits
}

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
func (s *State) Serving(i int) graph.NodeID { return s.serving[s.in.flowClass[i]].at }

// Instance returns the read-only instance the state evaluates.
func (s *State) Instance() *Instance { return s.in }

// AddBox deploys a middlebox on v and returns the bandwidth delta
// (≤ 0 for a diminishing middlebox). Adding a deployed vertex is a
// no-op. Only classes through v are touched; only vertices on moved
// classes' paths lose their cached scores.
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
	var dd int64
	for _, fa := range s.in.Through(v) {
		c := fa.Class
		cur := s.serving[c].down // -1 when unserved
		var moves bool
		if expanding {
			moves = cur < 0 || fa.Downstream < cur
		} else {
			moves = fa.Downstream > cur // unserved (-1) always moves
		}
		if !moves {
			continue
		}
		pc := &s.in.classes[c]
		if cur < 0 {
			s.unserved -= int(pc.mult)
			s.unservedStale = true
			cur = 0
		}
		dd += pc.rate * int64(fa.Downstream-cur)
		s.serving[c] = classServe{v, fa.Downstream}
		s.invalidateClass(int(c))
	}
	s.dec += dd
	if invariant.Enabled {
		s.verify("AddBox")
	}
	return s.in.scaleGain(-dd)
}

// RemoveBox deletes the middlebox on v and returns the bandwidth delta
// (≥ 0 for a diminishing middlebox). Removing an undeployed vertex is
// a no-op. Each class v served re-scans its own path once for the best
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
	var dd int64
	for _, fa := range s.in.Through(v) {
		c := int(fa.Class)
		if s.serving[c].at != v {
			continue
		}
		pc := &s.in.classes[c]
		next := s.in.serveClass(s.plan, c)
		down := next.down
		if down < 0 {
			s.unserved += int(pc.mult)
			s.unservedStale = true
			down = 0
		}
		dd += pc.rate * int64(down-fa.Downstream)
		s.serving[c] = next
		s.invalidateClass(c)
	}
	s.dec += dd
	if invariant.Enabled {
		s.verify("RemoveBox")
	}
	return s.in.scaleGain(-dd)
}

// invalidateClass drops the cached scores of every vertex on class
// c's path — exactly the vertices whose marginal or coverage count can
// have changed when the class's serving state changed.
//
//tdmd:hot
func (s *State) invalidateClass(c int) {
	for _, u := range s.in.classPath(c) {
		s.fresh[u] = false
	}
}

// MarginalGain returns d_P({v}) (Def. 2) for the current plan,
// recomputing from the through index only when some class through v
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
		invariant.Assert(math.Float64bits(s.gain[v]) == math.Float64bits(s.in.MarginalDecrement(s.plan, s.in.Allocate(s.plan), v)),
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
// index.
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
// The marginal is MarginalDecrement's exact sum: Σ rate·Δl over the
// classes that would move, scaled by (1−λ) once.
//
//tdmd:hot
func (s *State) VertexScore(v graph.NodeID) (gain float64, covered int) {
	expanding := s.in.Lambda > 1
	var sum int64
	for _, fa := range s.in.Through(v) {
		pc := &s.in.classes[fa.Class]
		cur := s.serving[fa.Class].down
		served := cur >= 0
		if !served {
			cur = 0 // gain baseline: 0 for unserved (Def. 2)
			covered += int(pc.mult)
		}
		var moves bool
		if expanding {
			moves = !served || fa.Downstream < cur
		} else {
			moves = fa.Downstream > cur
		}
		if moves {
			sum += pc.rate * int64(fa.Downstream-cur)
		}
	}
	if s.plan.Has(v) {
		return 0, covered // deployed vertices have no marginal; coverage still counts
	}
	return s.in.scaleGain(sum), covered
}

// verify cross-checks the incremental state against the full model
// recomputation: the maintained allocation must equal Allocate's
// output exactly, the unserved bookkeeping and the exact decrement
// must match it, and the bandwidth must agree with TotalBandwidth up
// to float rounding. Runs only with invariants enabled.
func (s *State) verify(op string) {
	alloc := s.in.Allocate(s.plan)
	unserved := 0
	var dec int64
	for i := range alloc {
		cs := s.serving[s.in.flowClass[i]]
		invariant.Assert(cs.at == alloc[i],
			"netsim: %s left flow %d served at %d, full allocation says %d", op, i, cs.at, alloc[i])
		if alloc[i] == Unserved {
			unserved++
			invariant.Assert(cs.down == -1,
				"netsim: %s left unserved flow %d with downstream %d", op, i, cs.down)
		} else {
			down := s.in.FlowPath(i).Downstream(alloc[i])
			invariant.Assert(int(cs.down) == down,
				"netsim: %s cached stale downstream %d for flow %d", op, cs.down, i)
			dec += int64(s.in.rates[i]) * int64(down)
		}
	}
	invariant.Assert(s.unserved == unserved,
		"netsim: %s counts %d unserved flows, full allocation says %d", op, s.unserved, unserved)
	invariant.Assert(s.dec == dec,
		"netsim: %s keeps decrement sum %d, full allocation says %d", op, s.dec, dec)
	want := s.in.TotalBandwidth(s.plan)
	invariant.Assert(stats.ApproxEqual(s.Bandwidth(), want, 1e-9),
		"netsim: %s bandwidth %v diverged from full recomputation %v", op, s.Bandwidth(), want)
}
