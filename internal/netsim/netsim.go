// Package netsim implements the TDMD bandwidth-consumption model of
// Sec. 3: deployments, the nearest-to-source allocation rule, per-flow
// and total bandwidth consumption (Eq. 1), the decrement function and
// its marginals (Defs. 1-2), and feasibility checking. A separate
// link-load simulator (linkload.go) recomputes consumption edge by
// edge and is used by tests to validate the closed-form model.
//
// Every Instance is built flow by flow through a Builder (builder.go),
// which interns each flow's path as it arrives and validates each
// distinct path once.
//
// Memory layout (DESIGN.md "Memory layout"): the instance's hot-path
// state lives in contiguous CSR-style arenas — per flow only a rate
// and a path-class id, one shared vertex-ID arena holding each
// distinct path once as a [start,end) span addressed by a per-class
// offset table, and one flat []FlowAt through arena over those
// classes addressed by a per-vertex offset table. Vertex, flow and
// class IDs are dense, so every per-iteration lookup is a slice index;
// no map is consulted anywhere on the solver fast path.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"tdmd/internal/graph"
	"tdmd/internal/invariant"
	"tdmd/internal/traffic"
)

// Instance is one TDMD problem instance: a network, a workload, and
// the middlebox's traffic-changing ratio λ. Every instance comes from a
// Builder, which validates each flow as it fills the arenas; New is the
// Builder loop over a []traffic.Flow workload. Construction precomputes
// the per-vertex flow index used by all algorithms.
//
// An Instance is read-only after construction — the only internal
// mutation is the lazily materialized flow view (flowsView, guarded by
// a sync.Once) — so one Instance may be shared by any number of
// concurrent solver calls (see placement's concurrency tests). Callers
// must not mutate G or any slice reachable from the instance after
// construction.
//
// The workload is addressed by dense flow index 0..NumFlows()-1:
// FlowRate and FlowPath are the hot-path accessors; Flows()
// materializes the []traffic.Flow view for cold paths that want the
// struct form.
type Instance struct {
	G      *graph.Graph
	Lambda float64

	// rates is the flat per-flow initial-rate arena (r_f). Together
	// with flowClass and the class paths it is the entire workload.
	rates []int32

	// flowClass maps every flow to its path class: flows whose paths
	// are equal vertex for vertex share one class, numbered in order of
	// first occurrence. classes holds each class's aggregate demand.
	// rates and flowClass are two segments of one builder allocation.
	// Every uncapacitated solver treats the flows of a class alike (the
	// allocation rule depends only on the path, and b(P) is linear in
	// rate), so the solver state and the through index work per class.
	flowClass []int32
	classes   []pathClass

	// through is the flat per-vertex class index: for every vertex v,
	// through[throughOff[v]:throughOff[v+1]] lists the path classes
	// visiting v together with l_v, the downstream edge count. It is
	// built by two-pass counting (no jagged append growth), so the
	// whole index is one contiguous allocation.
	through    []FlowAt
	throughOff []int32 // len NumNodes+1; CSR row offsets into through

	// pathArena holds each class path once, back to back; class c's
	// path is pathArena[classOff[c]:classOff[c+1]], and flow i's is its
	// class's. The hot path reads paths exclusively through
	// FlowPath/classPath, never through per-flow Path slices.
	pathArena []graph.NodeID
	classOff  []int32 // len NumClasses()+1; shares throughOff's allocation

	// rawDemand caches Σ r_f·|p_f|.
	rawDemand float64

	// flowsView is the Flows() view, materialized lazily under
	// flowsOnce (ID = index, Path = arena span).
	flowsOnce sync.Once
	flowsView []traffic.Flow
}

// FlowAt records that a path class visits some vertex with the given
// number of downstream edges.
type FlowAt struct {
	Class      int32 // dense path-class index (0..NumClasses()-1)
	Downstream int32 // l_v(f): edges from the vertex to the class's destination
}

// pathClass aggregates the flows sharing one path.
type pathClass struct {
	rate int64 // Σ r_f over the member flows
	mult int32 // number of member flows
	rep  int32 // first member flow
}

// New validates and indexes a problem instance. λ may be any finite
// non-negative ratio (see CheckLambda), matching the model's general
// traffic-changing middlebox (Sec. 3.1, "λ ≥ 0"): λ ≤ 1 is the
// traffic-diminishing case the paper's algorithms target, λ > 1 models
// traffic-expanding boxes (e.g. encryption or tunneling overhead). The
// allocation rule adapts automatically; the tree algorithms and GTP's
// guarantee require λ ≤ 1 and enforce it themselves.
//
// The flows are copied into pre-sized arenas through a Builder;
// validation errors name a flow by its ID, while the instance numbers
// flows by their index in the slice.
func New(g *graph.Graph, flows []traffic.Flow, lambda float64) (*Instance, error) {
	b := NewBuilder(g)
	hops := 0
	for _, f := range flows {
		hops += len(f.Path)
	}
	b.Reserve(len(flows), hops)
	for _, f := range flows {
		if err := b.addFlowPath(f.ID, f.Rate, f.Path); err != nil {
			return nil, err
		}
	}
	return b.Build(lambda)
}

// CheckLambda is the one range check every λ entry point applies: the
// ratio must be finite and non-negative. NaN and ±Inf would otherwise
// score every plan as NaN or ∞ without an error.
func CheckLambda(lambda float64) error {
	if lambda >= 0 && lambda <= math.MaxFloat64 {
		return nil
	}
	return fmt.Errorf("netsim: lambda must be finite and non-negative, got %v", lambda)
}

// buildThrough builds the class records, the CSR through index and
// the raw-demand cache from the builder's arenas. classOff is the
// builder's class offset table (nil for no flows), copied into one
// allocation with throughOff; scratch, the spent intern table, serves
// as the per-vertex counters when it is long enough. A counting pass
// sizes the through arena and a fill pass writes it. Nothing grows and
// no map is built.
//
// It fails when Σ r_f·|p_f| overflows int64: State keeps the decrement
// as an exact integer sum bounded by that total.
func (in *Instance) buildThrough(classOff, scratch []int32) error {
	n := in.G.NumNodes()
	index := make([]int32, n+1+max(len(classOff), 1))
	in.throughOff, in.classOff = index[:n+1:n+1], index[n+1:]
	copy(in.classOff, classOff)
	var demand int64
	for i, r := range in.rates {
		hops := in.flowHops(i)
		var err error
		if demand, err = AddDemand(demand, i, int(r), hops); err != nil {
			return err
		}
		in.rawDemand += float64(r) * float64(hops)
	}

	if len(scratch) < n {
		scratch = make([]int32, n)
	}
	in.classes = make([]pathClass, len(in.classOff)-1)
	for i, c := range in.flowClass {
		pc := &in.classes[c]
		if pc.mult == 0 {
			pc.rep = int32(i)
		}
		pc.mult++
		pc.rate += int64(in.rates[i])
	}

	counts := scratch[:n]
	clear(counts)
	for c := range in.classes {
		//tdmd:hot
		for _, v := range in.classPath(c) {
			counts[v]++
		}
	}
	for v := 0; v < n; v++ {
		in.throughOff[v+1] = in.throughOff[v] + counts[v]
	}
	in.through = make([]FlowAt, in.throughOff[n])

	// Fill pass: counts is reused as the per-vertex write cursor, so
	// each row lists its classes in increasing class order.
	copy(counts, in.throughOff[:n])
	for c := range in.classes {
		path := in.classPath(c)
		hops := len(path) - 1
		//tdmd:hot
		for pos, v := range path {
			in.through[counts[v]] = FlowAt{Class: int32(c), Downstream: int32(hops - pos)}
			counts[v]++
		}
	}
	return nil
}

// AddDemand adds flow i's term rate·hops to the running demand sum
// Σ r·|p| as New does, failing with New's error when the sum overflows
// int64. The rate must have passed CheckFlow.
func AddDemand(sum int64, i, rate, hops int) (int64, error) {
	term := int64(rate) * int64(hops) // |rate|, hops < 2³¹: cannot overflow
	if term > 0 && sum > math.MaxInt64-term {
		return sum, &DemandOverflowError{Flow: i}
	}
	return sum + term, nil
}

// DemandOverflowError rejects the flow at whose index a workload's
// demand Σ r·|p| overflows int64.
type DemandOverflowError struct{ Flow int }

func (e *DemandOverflowError) Error() string {
	return fmt.Sprintf("netsim: total demand Σ r·|p| overflows int64 at flow %d", e.Flow)
}

// hashPath hashes a vertex sequence: FNV-1a over the vertex IDs, then
// a murmur3 finalizer so the low bits the table indexes by depend on
// every vertex.
//
//tdmd:hot
func hashPath(path graph.Path) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range path {
		h ^= uint64(v)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// MustNew is New that panics on error; used by tests and examples
// whose inputs are static.
func MustNew(g *graph.Graph, flows []traffic.Flow, lambda float64) *Instance {
	inst, err := New(g, flows, lambda)
	if err != nil {
		panic(err)
	}
	return inst
}

// NumFlows reports the workload size |F|.
//
//tdmd:hot
func (in *Instance) NumFlows() int { return len(in.rates) }

// FlowRate returns r_f for flow index i, read from the rate arena.
//
//tdmd:hot
func (in *Instance) FlowRate(i int) int { return int(in.rates[i]) }

// Flow returns the struct view of flow i: ID i, its rate, and its path
// as a span of the shared arena (never a copy).
func (in *Instance) Flow(i int) traffic.Flow {
	return traffic.Flow{ID: i, Rate: int(in.rates[i]), Path: in.FlowPath(i)}
}

// Flows returns the workload as a []traffic.Flow, materialized lazily
// as Flow(i) for every index (paths alias the arena; one slice header
// per flow, no path copies). Cold paths (spec round-trips, simulation
// templates, scaling) use this; hot paths stay on
// NumFlows/FlowRate/FlowPath. The returned slice is owned by the
// instance and must not be mutated.
func (in *Instance) Flows() []traffic.Flow {
	in.flowsOnce.Do(func() {
		in.flowsView = make([]traffic.Flow, in.NumFlows())
		for i := range in.flowsView {
			in.flowsView[i] = in.Flow(i)
		}
	})
	return in.flowsView
}

// Through returns the path classes visiting v with their downstream
// counts — one contiguous row of the CSR through arena, owned by the
// instance. A row never lists a class twice: paths are simple.
//
//tdmd:hot
func (in *Instance) Through(v graph.NodeID) []FlowAt {
	return in.through[in.throughOff[v]:in.throughOff[v+1]]
}

// FlowPath returns flow i's path: its class's span of the shared path
// arena, so flows with equal paths share one slice. The slice is owned
// by the instance and must not be mutated; it compares equal
// element-for-element with Flows[i].Path.
//
//tdmd:hot
func (in *Instance) FlowPath(i int) graph.Path {
	return in.classPath(int(in.flowClass[i]))
}

// NumClasses reports the number of distinct flow paths.
func (in *Instance) NumClasses() int { return len(in.classes) }

// FlowClass returns flow i's path class.
func (in *Instance) FlowClass(i int) int { return int(in.flowClass[i]) }

// ClassFlow returns the first flow of path class c, in flow order.
func (in *Instance) ClassFlow(c int) int { return int(in.classes[c].rep) }

// ClassSize returns the number of flows in path class c.
func (in *Instance) ClassSize(c int) int { return int(in.classes[c].mult) }

// classPath returns class c's span of the path arena, capped at its
// length so that an append copies instead of overwriting the next
// class's hops.
//
//tdmd:hot
func (in *Instance) classPath(c int) graph.Path {
	a, b := in.classOff[c], in.classOff[c+1]
	return graph.Path(in.pathArena[a:b:b])
}

// flowHops returns |p_f| for flow i from its class's span.
//
//tdmd:hot
func (in *Instance) flowHops(i int) int {
	c := in.flowClass[i]
	return int(in.classOff[c+1]-in.classOff[c]) - 1
}

// RawDemand returns Σ r_f·|p_f|, the consumption with no middlebox.
func (in *Instance) RawDemand() float64 { return in.rawDemand }

// Plan is a middlebox deployment: the set of vertices hosting a
// middlebox (P in the paper). The zero value is an empty plan.
//
// A Plan is canonically flat: a sorted vertex list for ordered
// iteration plus a membership bitset for O(1) tests — no map is
// involved anywhere (maps survive only at JSON/API boundaries, which
// go through Vertices and Add). Plans are value types backed by
// slices: copy with Clone for an independent plan; mutating methods
// use pointer receivers.
type Plan struct {
	vs   []graph.NodeID // deployed vertices, strictly increasing
	bits []uint64       // membership bitset indexed by vertex ID
}

// NewPlan returns a plan containing the given vertices.
func NewPlan(vs ...graph.NodeID) Plan {
	var p Plan
	for _, v := range vs {
		p.Add(v)
	}
	return p
}

// reserve grows the membership bitset to cover vertex IDs < n, so
// subsequent Adds below n never reallocate it.
func (p *Plan) reserve(n int) {
	if words := (n + 63) / 64; words > len(p.bits) {
		grown := make([]uint64, words)
		copy(grown, p.bits)
		p.bits = grown
	}
}

// Add deploys a middlebox on v (idempotent). A negative v is a
// programming error and panics naming it.
func (p *Plan) Add(v graph.NodeID) {
	if v < 0 {
		panic(fmt.Sprintf("netsim: Plan.Add of negative vertex %d", v))
	}
	if p.Has(v) {
		return
	}
	p.reserve(int(v) + 1)
	p.bits[v>>6] |= 1 << (uint(v) & 63)
	// Insert into the sorted vertex list. Plans are small relative to
	// the workloads they serve; the memmove is cheap and keeps every
	// ordered read (Vertices, AppendVertices, Covers) allocation- and
	// sort-free.
	i := sort.Search(len(p.vs), func(i int) bool { return p.vs[i] >= v })
	p.vs = append(p.vs, 0)
	copy(p.vs[i+1:], p.vs[i:])
	p.vs[i] = v
}

// Remove deletes the middlebox on v if present; a negative v is never
// present.
func (p *Plan) Remove(v graph.NodeID) {
	if !p.Has(v) {
		return
	}
	p.bits[v>>6] &^= 1 << (uint(v) & 63)
	i := sort.Search(len(p.vs), func(i int) bool { return p.vs[i] >= v })
	copy(p.vs[i:], p.vs[i+1:])
	p.vs = p.vs[:len(p.vs)-1]
}

// Has reports whether v hosts a middlebox — one bounds check and one
// bit test, no hashing. A negative v hosts none: its word index wraps
// past the bitset in the unsigned compare.
//
//tdmd:hot
func (p Plan) Has(v graph.NodeID) bool {
	w := int(v) >> 6
	return uint(w) < uint(len(p.bits)) && p.bits[w]&(1<<(uint(v)&63)) != 0
}

// Size returns |P|, the number of deployed middleboxes.
func (p Plan) Size() int { return len(p.vs) }

// Vertices returns the deployed vertices in increasing order. The
// returned slice is a copy and safe to mutate.
func (p Plan) Vertices() []graph.NodeID {
	return append([]graph.NodeID(nil), p.vs...)
}

// AppendVertices appends the deployed vertices to buf in increasing
// order and returns the extended slice — the allocation-free
// counterpart of Vertices for hot loops.
//
//tdmd:hot
func (p Plan) AppendVertices(buf []graph.NodeID) []graph.NodeID {
	return append(buf, p.vs...)
}

// Clone returns an independent copy.
func (p Plan) Clone() Plan {
	return Plan{
		vs:   append([]graph.NodeID(nil), p.vs...),
		bits: append([]uint64(nil), p.bits...),
	}
}

// String renders "{v1, v5}" using vertex IDs.
func (p Plan) String() string {
	parts := make([]string, len(p.vs))
	for i, v := range p.vs {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Unserved marks a flow with no middlebox on its path in an
// Allocation.
const Unserved graph.NodeID = graph.Invalid

// Allocation maps each flow (by index) to the vertex whose middlebox
// serves it, or Unserved. This is F in the paper; given P it is
// uniquely determined by the nearest-to-source rule.
type Allocation []graph.NodeID

// Allocate applies the optimal allocation rule. For traffic-
// diminishing middleboxes (λ ≤ 1) each flow is served by the deployed
// vertex on its path with the maximum downstream count (nearest the
// source); for traffic-expanding ones (λ > 1) by the minimum downstream
// count (nearest the destination). Both minimize the flow's
// consumption b(f) = r·(|p| − (1−λ)·l_v). The rule depends only on the
// path, so each path class is scanned once and the result expanded to
// its flows.
func (in *Instance) Allocate(p Plan) Allocation {
	alloc := make(Allocation, in.NumFlows())
	// A class's first flow precedes its other members, so the class's
	// answer is stored there and copied forward in one flow-order pass.
	for c, pc := range in.classes {
		alloc[pc.rep] = in.serveClass(p, c).at
	}
	for i, c := range in.flowClass {
		alloc[i] = alloc[in.classes[c].rep]
	}
	if invariant.Enabled {
		in.assertAllocation(p, alloc)
	}
	return alloc
}

// classServe is the allocation of one path class: its serving vertex
// and that vertex's downstream count, or (Unserved, -1).
type classServe struct {
	at   graph.NodeID
	down int32
}

// serveClass applies the allocation rule to path class c. The scan
// that finds the serving vertex also yields its downstream count.
//
//tdmd:hot
func (in *Instance) serveClass(p Plan, c int) classServe {
	path := in.classPath(c)
	hops := len(path) - 1
	if in.Lambda <= 1 {
		for j, v := range path { // src -> dst: first hit is nearest the source
			if p.Has(v) {
				return classServe{v, int32(hops - j)}
			}
		}
	} else {
		for j := hops; j >= 0; j-- { // last hit: nearest the destination
			if p.Has(path[j]) {
				return classServe{path[j], int32(hops - j)}
			}
		}
	}
	return classServe{Unserved, -1}
}

// allocateClasses applies the allocation rule to every path class.
func (in *Instance) allocateClasses(p Plan) []classServe {
	cs := make([]classServe, len(in.classes))
	for c := range cs {
		cs[c] = in.serveClass(p, c)
	}
	return cs
}

// assertAllocation checks the serve-exactly-once contract behind
// every bandwidth computation: a served flow's vertex is deployed and
// on the flow's path, and a flow is unserved only when no deployed
// vertex lies on its path. Runs only with invariants enabled.
func (in *Instance) assertAllocation(p Plan, alloc Allocation) {
	invariant.Assert(len(alloc) == in.NumFlows(),
		"netsim: allocation has %d entries for %d flows", len(alloc), in.NumFlows())
	for i := range alloc {
		v := alloc[i]
		path := in.FlowPath(i)
		if v == Unserved {
			for _, u := range path {
				invariant.Assert(!p.Has(u),
					"netsim: flow %d unserved although deployed vertex %d is on its path", i, u)
			}
			continue
		}
		invariant.Assert(p.Has(v), "netsim: flow %d allocated to undeployed vertex %d", i, v)
		invariant.Assert(path.Downstream(v) >= 0,
			"netsim: flow %d allocated to off-path vertex %d", i, v)
	}
}

// Feasible reports whether every flow has a middlebox on its path.
func (in *Instance) Feasible(p Plan) bool {
	for c := range in.classes {
		if in.serveClass(p, c).at == Unserved {
			return false
		}
	}
	return true
}

// FlowBandwidth returns b(f) for flow index i when served at v
// (Unserved means the flow keeps its initial rate on every hop):
// b(f) = r_f·( |p_f| − (1−λ)·l_v(f) ).
//
//tdmd:hot
func (in *Instance) FlowBandwidth(i int, v graph.NodeID) float64 {
	if v == Unserved {
		return in.bandwidthAt(i, -1)
	}
	l := in.FlowPath(i).Downstream(v)
	if l < 0 {
		panic(fmt.Sprintf("netsim: vertex %d not on path of flow %d", v, i))
	}
	return in.bandwidthAt(i, l)
}

// bandwidthAt returns b(f) for flow i served at a vertex with l
// downstream edges (l < 0: unserved), with FlowBandwidth's arithmetic.
//
//tdmd:hot
func (in *Instance) bandwidthAt(i, l int) float64 {
	rate := float64(in.rates[i])
	full := rate * float64(in.flowHops(i))
	if l < 0 {
		return full
	}
	return full - rate*(1-in.Lambda)*float64(l)
}

// sumBandwidth returns b(P) for a class allocation, summed per flow in
// flow order. Every caller sums the same terms in the same order, so
// equal plans score bit-identically.
//
//tdmd:hot
func (in *Instance) sumBandwidth(cs []classServe) float64 {
	var total float64
	for i, c := range in.flowClass {
		total += in.bandwidthAt(i, int(cs[c].down))
	}
	return total
}

// TotalBandwidth returns b(P): the sum of every flow's consumption
// under the optimal allocation for p. Unserved flows consume their
// full initial-rate bandwidth (they still traverse their paths).
func (in *Instance) TotalBandwidth(p Plan) float64 {
	bandwidth, _ := in.Evaluate(p)
	return bandwidth
}

// Evaluate returns TotalBandwidth(p) and Feasible(p) from one
// allocation.
func (in *Instance) Evaluate(p Plan) (bandwidth float64, feasible bool) {
	cs := in.allocateClasses(p)
	feasible = true
	for _, s := range cs {
		if s.at == Unserved {
			feasible = false
			break
		}
	}
	return in.sumBandwidth(cs), feasible
}

// Decrement returns d(P) = Σ r_f·|p_f| − b(P) (Def. 1): the bandwidth
// saved by the deployment relative to deploying nothing.
func (in *Instance) Decrement(p Plan) float64 {
	return in.rawDemand - in.TotalBandwidth(p)
}

// MarginalDecrement returns d_P({v}) = d(P ∪ {v}) − d(P) (Def. 2)
// computed incrementally in O(classes through v). In the diminishing
// case only flows whose current serving point is strictly farther from
// their source than v improve; in the expanding case (λ > 1) the
// allocation moves toward the destination instead, and newly covered
// flows contribute a negative marginal (expansion is a cost the
// coverage constraint forces). The rate-weighted downstream gains are
// summed exactly in an int64 and scaled by (1−λ) once (see scaleGain),
// so the value does not depend on flow order.
func (in *Instance) MarginalDecrement(p Plan, alloc Allocation, v graph.NodeID) float64 {
	if p.Has(v) {
		return 0
	}
	var sum int64
	for _, fa := range in.Through(v) {
		pc := in.classes[fa.Class]
		at := alloc[pc.rep]
		served := at != Unserved
		cur := int32(0) // downstream count at the current serving vertex; 0 is the unserved baseline
		if served {
			cur = int32(in.classPath(int(fa.Class)).Downstream(at))
		}
		moves := false
		if in.Lambda <= 1 {
			moves = fa.Downstream > cur // includes the unserved case
		} else {
			moves = !served || fa.Downstream < cur
		}
		if moves {
			sum += pc.rate * int64(fa.Downstream-cur)
		}
	}
	return in.scaleGain(sum)
}

// scaleGain converts an exact rate-weighted downstream sum Σ r·Δl into
// a decrement, (1−λ)·Σ r·Δl, returning +0 for an empty sum.
//
//tdmd:hot
func (in *Instance) scaleGain(sum int64) float64 {
	if sum == 0 {
		return 0
	}
	return float64(sum) * (1 - in.Lambda)
}

// CoveredBy returns, for every vertex, the set of flow indices whose
// paths visit it — the set-cover structure underlying feasibility
// (Theorem 1). Each list is in increasing flow order.
func (in *Instance) CoveredBy() [][]int {
	out := make([][]int, in.G.NumNodes())
	for v := range out {
		size := 0
		for _, fa := range in.Through(graph.NodeID(v)) {
			size += int(in.classes[fa.Class].mult)
		}
		out[v] = make([]int, 0, size)
	}
	for i := 0; i < in.NumFlows(); i++ {
		for _, v := range in.FlowPath(i) {
			out[v] = append(out[v], i)
		}
	}
	return out
}

// MemoryFootprint reports the memory retained by the instance, in
// bytes: the through arena, the class path arena, the rate arena, the
// path-class tables and the offset tables (the data the bytes/flow
// budget tracks).
func (in *Instance) MemoryFootprint() int64 {
	const (
		flowAtSize = int64(unsafe.Sizeof(FlowAt{}))
		nodeIDSize = int64(unsafe.Sizeof(graph.NodeID(0)))
		classSize  = int64(unsafe.Sizeof(pathClass{}))
	)
	return int64(cap(in.through))*flowAtSize +
		int64(cap(in.pathArena))*nodeIDSize +
		int64(cap(in.rates))*4 +
		int64(cap(in.flowClass))*4 +
		int64(cap(in.classes))*classSize +
		int64(cap(in.throughOff)+cap(in.classOff))*4
}
