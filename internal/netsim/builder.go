package netsim

import (
	"fmt"
	"math"

	"tdmd/internal/graph"
	"tdmd/internal/traffic"
)

// Builder fills an instance's rate and path arenas one flow at a time.
// It is the only way an Instance is made: New, the facade's spec and
// stream builders, the online placer and the scaled DP all feed one,
// so each flow is validated exactly once, as it arrives. The first
// flow freezes an adjacency index of the graph; a rejected flow leaves
// the arenas as they were, so the builder stays usable. Build hands
// the arenas to the instance without copying; the builder must not be
// used afterwards.
type Builder struct {
	g      *graph.Graph
	adj    graph.AdjSet // valid once frozen
	frozen bool

	rates     []int32
	pathArena []graph.NodeID
	pathOff   []int32
}

// NewBuilder returns an empty builder over g. The graph may still gain
// vertices and edges until the first flow is added.
func NewBuilder(g *graph.Graph) *Builder {
	return &Builder{g: g, pathOff: []int32{0}}
}

// Reserve pre-sizes the arenas for the given flow and total-hop
// counts, so a bulk fill of known size never regrows them. Optional:
// without it the arenas grow by the usual doubling.
func (b *Builder) Reserve(flows, pathEntries int) {
	if cap(b.rates)-len(b.rates) < flows || cap(b.pathOff)-len(b.pathOff) < flows {
		// The rate and offset arenas share one exact-sized allocation;
		// the capped rate slice cannot append into the offsets.
		nr, no := len(b.rates)+flows, len(b.pathOff)+flows
		grown := make([]int32, nr+no)
		copy(grown, b.rates)
		copy(grown[nr:], b.pathOff)
		b.rates, b.pathOff = grown[:len(b.rates):nr], grown[nr:nr+len(b.pathOff)]
	}
	if cap(b.pathArena)-len(b.pathArena) < pathEntries {
		b.pathArena = append(make([]graph.NodeID, 0, len(b.pathArena)+pathEntries), b.pathArena...)
	}
}

// Frozen reports whether a flow has been added, rejected or not: from
// then on the builder validates against a snapshot of the topology.
func (b *Builder) Frozen() bool { return b.frozen }

// NumFlows reports how many flows the builder holds so far.
func (b *Builder) NumFlows() int { return len(b.pathOff) - 1 }

// AddFlow appends the next flow given its rate and vertex-id path. The
// hops land directly in the shared path arena. Validation errors are
// *traffic.PathError values naming the flow by its index.
//
//tdmd:hot
func (b *Builder) AddFlow(rate int, path []int) error {
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
	start := len(b.pathArena)
	b.pathArena = append(b.pathArena, path...)
	return b.commit(b.NumFlows(), rate, start)
}

// commit validates the hops appended at [start:] as the next flow,
// named id in errors, and commits them, or rolls the arena back.
func (b *Builder) commit(id, rate, start int) error {
	if !b.frozen {
		b.adj = graph.NewAdjSet(b.g)
		b.frozen = true
	}
	err := traffic.ValidateFlow(b.adj, id, rate, b.pathArena[start:])
	if err == nil && rate > math.MaxInt32 {
		err = fmt.Errorf("netsim: flow %d rate %d overflows the rate arena", id, rate)
	}
	if err == nil {
		err = checkPathOffset(id, int64(len(b.pathArena)))
	}
	if err != nil {
		b.pathArena = b.pathArena[:start]
		return err
	}
	b.rates = append(b.rates, int32(rate))
	b.pathOff = append(b.pathOff, int32(len(b.pathArena)))
	return nil
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
// ratio λ (see New for its range).
func (b *Builder) Build(lambda float64) (*Instance, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("netsim: negative lambda %v", lambda)
	}
	inst := &Instance{
		G: b.g, Lambda: lambda,
		rates: b.rates, pathArena: b.pathArena, pathOff: b.pathOff,
	}
	if err := inst.buildThrough(); err != nil {
		return nil, err
	}
	updateMemoryGauges(inst)
	return inst, nil
}
