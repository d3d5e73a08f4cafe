package netsim

import (
	"fmt"
	"math"
	"slices"

	"tdmd/internal/graph"
	"tdmd/internal/traffic"
)

// Builder fills an instance's arenas one flow at a time. It is the
// only way an Instance is made: New, the facade's spec and stream
// builders, the online placer and the scaled DP all feed one, so each
// flow is validated exactly once, as it arrives. The first flow freezes
// an adjacency index of the graph; a rejected flow leaves the arenas as
// they were, so the builder stays usable. Build hands the arenas to the
// instance without copying; the builder must not be used afterwards.
//
// Paths are interned as they arrive: each distinct path is stored,
// validated and hashed once, as a path class numbered in order of
// first occurrence, and every flow keeps only its rate and class id.
type Builder struct {
	g      *graph.Graph
	adj    graph.AdjSet // valid once frozen
	frozen bool

	// Per flow: rate and path class, two equal-capacity segments of
	// one allocation that grows by doubling.
	rates     []int32
	flowClass []int32

	// Per class: class c's path is pathArena[classOff[c]:classOff[c+1]].
	// classOff is nil until the first flow arrives.
	pathArena []graph.NodeID
	classOff  []int32

	// table is the open-addressing intern table over the class paths:
	// a power-of-two length at least twice the class count, each slot 0
	// (empty) or 1 + a class id, probed linearly from the path's hash.
	// It shares one scratch allocation with classOff, which Build
	// copies out, and it doubles (rehashing the classes) only when a
	// new class would fill it past half.
	table []int32
}

// NewBuilder returns an empty builder over g. The graph may still gain
// vertices and edges until the first flow is added.
func NewBuilder(g *graph.Graph) *Builder {
	return &Builder{g: g}
}

// Reserve pre-sizes the arenas for the given flow and total-hop
// counts. The rate and class arenas and the intern table are sized
// for that many more flows, all distinct, so they never regrow. The
// path arena stores each distinct path once, so it is sized for half
// the hops: it doubles once if more than half are distinct, and Build
// trims it if less than half of it was used. Optional: without it
// every arena grows by doubling.
func (b *Builder) Reserve(flows, pathEntries int) {
	if need := len(b.rates) + flows; need > cap(b.rates) {
		b.growFlows(need)
	}
	b.growClasses(b.numClasses() + flows)
	b.growArena(pathEntries / 2)
}

// growArena makes room for n more hops in the path arena, at least
// doubling it when it must grow.
func (b *Builder) growArena(n int) {
	if cap(b.pathArena)-len(b.pathArena) < n {
		grown := make([]graph.NodeID, 0, max(2*cap(b.pathArena), len(b.pathArena)+n))
		b.pathArena = append(grown, b.pathArena...)
	}
}

// growFlows moves the rate and class arenas into one allocation with
// room for capacity flows.
func (b *Builder) growFlows(capacity int) {
	n := len(b.rates)
	grown := make([]int32, 2*capacity)
	copy(grown, b.rates)
	copy(grown[capacity:], b.flowClass)
	b.rates, b.flowClass = grown[:n:capacity], grown[capacity:capacity+n]
}

// growClasses makes room for classes path classes: a table of at
// least twice that many slots, and class offsets behind it in the same
// allocation. The classes held so far are rehashed into the new table.
func (b *Builder) growClasses(classes int) {
	if 2*classes <= len(b.table) {
		return
	}
	size := 64
	for size < 2*classes {
		size <<= 1
	}
	scratch := make([]int32, size+size/2+1)
	b.table, b.classOff = scratch[:size], append(scratch[size:size], b.classOff...)
	if len(b.classOff) == 0 {
		b.classOff = b.classOff[:1] // class 0 starts at offset 0
	}
	for c := range b.numClasses() {
		slot, _ := b.lookup(b.classPath(int32(c)))
		b.table[slot] = int32(c) + 1
	}
}

// numClasses reports how many distinct paths the builder holds.
func (b *Builder) numClasses() int { return max(len(b.classOff)-1, 0) }

// classPath returns class c's span of the path arena.
func (b *Builder) classPath(c int32) graph.Path {
	return graph.Path(b.pathArena[b.classOff[c]:b.classOff[c+1]])
}

// lookup finds path in the intern table: its slot and class, or the
// empty slot it would take and class -1.
//
//tdmd:hot
func (b *Builder) lookup(path graph.Path) (slot uint64, class int32) {
	mask := uint64(len(b.table) - 1)
	for slot = hashPath(path) & mask; ; slot = (slot + 1) & mask {
		c := b.table[slot] - 1
		if c < 0 || slices.Equal(b.classPath(c), path) {
			return slot, c
		}
	}
}

// Frozen reports whether a flow has been added, rejected or not: from
// then on the builder validates against a snapshot of the topology.
func (b *Builder) Frozen() bool { return b.frozen }

// NumFlows reports how many flows the builder holds so far.
func (b *Builder) NumFlows() int { return len(b.rates) }

// AddFlow appends the next flow given its rate and vertex-id path.
// Validation errors are *traffic.PathError values naming the flow by
// its index.
//
//tdmd:hot
func (b *Builder) AddFlow(rate int, path []int) error {
	b.growArena(len(path))
	start := len(b.pathArena)
	for _, v := range path {
		b.pathArena = append(b.pathArena, graph.NodeID(v))
	}
	return b.commit(b.NumFlows(), rate, start)
}

// AddFlowPath is AddFlow for callers already holding a NodeID path.
//
//tdmd:hot
func (b *Builder) AddFlowPath(rate int, path graph.Path) error {
	return b.addFlowPath(b.NumFlows(), rate, path)
}

// addFlowPath is AddFlowPath naming the flow id in errors.
func (b *Builder) addFlowPath(id, rate int, path graph.Path) error {
	b.growArena(len(path))
	start := len(b.pathArena)
	b.pathArena = append(b.pathArena, path...)
	return b.commit(id, rate, start)
}

// commit interns the hops appended at [start:] as the next flow's
// path, named id in errors. A path already held is rolled back out of
// the arena and the flow joins its class through addClassFlow; a new
// path is validated in full and becomes the next class. On error the
// arena is rolled back and nothing is committed.
func (b *Builder) commit(id, rate, start int) error {
	if !b.frozen {
		b.adj = graph.NewAdjSet(b.g)
		b.frozen = true
	}
	b.growClasses(b.numClasses() + 1)
	path := graph.Path(b.pathArena[start:])
	slot, class := b.lookup(path)
	if class >= 0 {
		b.pathArena = b.pathArena[:start]
		return b.addClassFlow(id, rate, class)
	}
	err := traffic.ValidateFlow(b.adj, id, rate, path)
	if err == nil {
		err = checkRate(id, rate)
	}
	if err == nil {
		err = checkPathOffset(id, int64(len(b.pathArena)))
	}
	if err != nil {
		b.pathArena = b.pathArena[:start]
		return err
	}
	class = int32(b.numClasses())
	b.table[slot] = class + 1
	b.classOff = append(b.classOff, int32(len(b.pathArena)))
	b.appendFlow(rate, class)
	return nil
}

// FlowClass reports the path class of flow i, numbered in order of
// first occurrence as the instance will number it.
func (b *Builder) FlowClass(i int) int { return int(b.flowClass[i]) }

// AddClassFlow appends the next flow on the path of class, which
// must be the class of an earlier flow (see FlowClass). Only the rate
// is checked, exactly as for an AddFlow whose path repeats an earlier
// one, with the same errors.
//
//tdmd:hot
func (b *Builder) AddClassFlow(rate, class int) error {
	return b.addClassFlow(b.NumFlows(), rate, int32(class))
}

// addClassFlow is AddClassFlow naming the flow id in errors.
//
//tdmd:hot
func (b *Builder) addClassFlow(id, rate int, class int32) error {
	if err := checkRate(id, rate); err != nil {
		return err
	}
	b.appendFlow(rate, class)
	return nil
}

// checkRate is the check every flow's rate passes: positive, and
// small enough for the int32 rate arena.
func checkRate(id, rate int) error {
	if err := traffic.ValidateRate(id, rate); err != nil {
		return err
	}
	if rate > math.MaxInt32 {
		return fmt.Errorf("netsim: flow %d rate %d overflows the rate arena", id, rate)
	}
	return nil
}

// appendFlow stores one checked flow's rate and class.
func (b *Builder) appendFlow(rate int, class int32) {
	if len(b.rates) == cap(b.rates) {
		b.growFlows(max(2*len(b.rates), 64))
	}
	b.rates = append(b.rates, int32(rate))
	b.flowClass = append(b.flowClass, class)
}

// ArenaOverflowError rejects a flow whose hops would end the shared
// path arena past the largest int32 offset.
type ArenaOverflowError struct {
	Flow int   // the rejected flow, named as in other validation errors
	End  int64 // arena length the flow would have produced
}

func (e *ArenaOverflowError) Error() string {
	return fmt.Sprintf("netsim: flow %d ends the path arena at %d hops, past its int32 offsets", e.Flow, e.End)
}

// checkPathOffset rejects flow id if its path would end the arena at
// end entries, beyond what an int32 offset can address.
func checkPathOffset(id int, end int64) error {
	if end > math.MaxInt32 {
		return &ArenaOverflowError{Flow: id, End: end}
	}
	return nil
}

// Build indexes the arenas into an instance with traffic-changing
// ratio λ (see New for its range). A path arena less than half filled
// by the class paths (Reserve sized it for more distinct hops than
// came) is trimmed to size first.
func (b *Builder) Build(lambda float64) (*Instance, error) {
	if err := CheckLambda(lambda); err != nil {
		return nil, err
	}
	if len(b.pathArena) < cap(b.pathArena)/2 {
		b.pathArena = append(make([]graph.NodeID, 0, len(b.pathArena)), b.pathArena...)
	}
	inst := &Instance{
		G: b.g, Lambda: lambda,
		rates: b.rates, flowClass: b.flowClass, pathArena: b.pathArena,
	}
	if err := inst.buildThrough(b.classOff, b.table); err != nil {
		return nil, err
	}
	updateMemoryGauges(inst)
	return inst, nil
}
