package graph

import "slices"

// AdjSet is a frozen, binary-searchable adjacency index of a graph:
// per-vertex sorted out-neighbor lists in one contiguous CSR arena.
// Graph.HasEdge scans the insertion-ordered edge list (O(out-degree));
// AdjSet answers the same question in O(log out-degree) with no
// allocation, which is what bulk path validation needs — a million-flow
// ingest tests tens of millions of hop pairs against adjacency.
//
// The index is a snapshot: edges added to the graph after NewAdjSet are
// not visible. Builders freeze the topology before the flow fill, so
// this is the contract they want.
type AdjSet struct {
	off []int32  // len NumNodes+1; CSR row offsets into to
	to  []NodeID // sorted out-neighbors, one row per vertex
}

// NewAdjSet builds the adjacency index of g's current edge set.
func NewAdjSet(g *Graph) AdjSet {
	n := g.NumNodes()
	a := AdjSet{
		off: make([]int32, n+1),
		to:  make([]NodeID, 0, g.NumEdges()),
	}
	for v := 0; v < n; v++ {
		row := g.Out(NodeID(v))
		start := len(a.to)
		for _, e := range row {
			a.to = append(a.to, e.To)
		}
		// slices.Sort, not sort.Slice: the closure + interface boxing
		// of sort.Slice allocate twice per row, which at |V| rows put
		// every instance build (netsim.Builder freezes one index per
		// instance) hundreds of allocs over budget. The generic sort is
		// allocation-free and yields the same order.
		slices.Sort(a.to[start:])
		a.off[v+1] = int32(len(a.to))
	}
	return a
}

// Len reports the number of vertices the index covers.
func (a AdjSet) Len() int { return len(a.off) - 1 }

// Has reports whether the directed edge from -> to existed when the
// index was built. Out-of-range endpoints are simply absent.
//
//tdmd:hot
func (a AdjSet) Has(from, to NodeID) bool {
	if from < 0 || int(from) >= a.Len() || to < 0 || int(to) >= a.Len() {
		return false
	}
	lo, hi := int(a.off[from]), int(a.off[from+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.to[mid] < to:
			lo = mid + 1
		case a.to[mid] > to:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// InternNode returns the vertex carrying the given label, adding it
// first if absent — the label-interning primitive the streaming
// loaders use: every distinct label is stored once, and repeated
// references resolve to the same dense NodeID without growing the
// graph. With duplicated pre-existing labels it resolves to the
// lowest ID, per the AddNode contract.
func (g *Graph) InternNode(name string) NodeID {
	if id := g.NodeByName(name); id != Invalid {
		return id
	}
	return g.AddNode(name)
}
