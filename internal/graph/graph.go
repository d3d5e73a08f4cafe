// Package graph provides the directed-graph substrate used by every
// other package in this repository: adjacency storage, shortest paths,
// path objects, rooted-tree views, and deterministic iteration order.
//
// The TDMD algorithms (internal/placement) treat the network purely as
// an abstract directed graph, so this package carries no middlebox or
// flow semantics.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a vertex. IDs are dense, starting at 0, in the
// order vertices were added; this keeps per-node data in plain slices.
type NodeID int

// Invalid is the zero-information NodeID returned by lookups that fail.
const Invalid NodeID = -1

// Edge is a directed link between two vertices with a non-negative
// weight. The TDMD model counts hops, so most callers use weight 1,
// but Dijkstra-based routing honours arbitrary weights.
type Edge struct {
	From, To NodeID
	Weight   float64
}

// Graph is a mutable directed graph. The zero value is an empty graph
// ready for use.
type Graph struct {
	names   []string          // names[id] = label of vertex id
	byName  map[string]NodeID // reverse index, built lazily
	out     [][]Edge          // out[id] = outgoing edges, insertion order
	in      [][]Edge          // in[id] = incoming edges, insertion order
	edgeCnt int
}

// New returns an empty graph. Equivalent to new(Graph); provided for
// symmetry with the rest of the codebase.
func New() *Graph { return &Graph{} }

// NumNodes reports the number of vertices.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int { return g.edgeCnt }

// AddNode adds a vertex with the given label and returns its ID.
//
// Contract: labels need not be unique — the graph identifies vertices
// by ID, never by label — but every label-based lookup (NodeByName,
// and anything built on it, like trace replay) resolves a duplicated
// label to the LOWEST vertex ID carrying it and silently ignores the
// others. Code that loads labeled topologies and will later look
// vertices up by name must reject duplicate labels itself, as the GML
// loader does.
func (g *Graph) AddNode(name string) NodeID {
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	if g.byName != nil {
		if _, dup := g.byName[name]; !dup {
			g.byName[name] = id
		}
	}
	return id
}

// Grow reserves room for n more vertices, so adding them regrows no
// vertex table.
func (g *Graph) Grow(n int) {
	g.names = grow(g.names, n)
	g.out = grow(g.out, n)
	g.in = grow(g.in, n)
}

// grow returns s with room for n more elements.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// ReserveEdges sizes every vertex's edge lists for edges still to be
// added: out[v] more outgoing and in[v] more incoming edges at vertex
// v. Each direction's lists are carved from one allocation, so adding
// those edges regrows no list; a list that outgrows its share is
// reallocated, never spilling into its neighbour's.
func (g *Graph) ReserveEdges(out, in []int32) {
	reserveLists(g.out, out)
	reserveLists(g.in, in)
}

// reserveLists moves each lists[v] into a shared backing array with
// room for more[v] further edges.
func reserveLists(lists [][]Edge, more []int32) {
	total := 0
	for v, k := range more {
		total += len(lists[v]) + int(k)
	}
	backing := make([]Edge, 0, total)
	for v, k := range more {
		start := len(backing)
		backing = append(backing, lists[v]...)
		end := len(backing)
		lists[v] = backing[start : end : end+int(k)]
		backing = backing[:end+int(k)]
	}
}

// AddNodes adds n anonymous vertices named "v0".."v<n-1>" (offset by
// the current node count) and returns the ID of the first one.
func (g *Graph) AddNodes(n int) NodeID {
	first := NodeID(len(g.names))
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("v%d", int(first)+i))
	}
	return first
}

// Name returns the label of v.
func (g *Graph) Name(v NodeID) string { return g.names[v] }

// NodeByName returns the first (lowest-ID) vertex with the given
// label, or Invalid. See the AddNode contract: with duplicated labels
// the later vertices are unreachable by name, so loaders whose labels
// are identifiers reject duplicates.
func (g *Graph) NodeByName(name string) NodeID {
	if g.byName == nil {
		g.byName = make(map[string]NodeID, len(g.names))
		for id := len(g.names) - 1; id >= 0; id-- {
			g.byName[g.names[id]] = NodeID(id)
		}
	}
	if id, ok := g.byName[name]; ok {
		return id
	}
	return Invalid
}

// Valid reports whether v is a vertex of g.
func (g *Graph) Valid(v NodeID) bool { return v >= 0 && int(v) < len(g.names) }

// AddEdge inserts a directed edge from -> to with weight 1.
func (g *Graph) AddEdge(from, to NodeID) {
	g.AddWeightedEdge(from, to, 1)
}

// AddWeightedEdge inserts a directed edge with the given weight.
// It panics if either endpoint is not a vertex of g or if the weight
// is negative: both indicate programmer error, not runtime conditions.
func (g *Graph) AddWeightedEdge(from, to NodeID, w float64) {
	if !g.Valid(from) || !g.Valid(to) {
		panic(fmt.Sprintf("graph: edge %d->%d references unknown vertex (n=%d)", from, to, len(g.names)))
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: negative edge weight %v", w))
	}
	e := Edge{From: from, To: to, Weight: w}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.edgeCnt++
}

// AddBiEdge inserts the pair of directed edges from<->to with weight 1.
// The paper assumes every link is bidirectional; generators use this.
func (g *Graph) AddBiEdge(a, b NodeID) {
	g.AddEdge(a, b)
	g.AddEdge(b, a)
}

// HasEdge reports whether a directed edge from -> to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	for _, e := range g.out[from] {
		if e.To == to {
			return true
		}
	}
	return false
}

// Out returns the outgoing edges of v. The slice is owned by the
// graph; callers must not mutate it.
func (g *Graph) Out(v NodeID) []Edge { return g.out[v] }

// In returns the incoming edges of v. The slice is owned by the graph.
func (g *Graph) In(v NodeID) []Edge { return g.in[v] }

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v NodeID) int { return len(g.out[v]) }

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v NodeID) int { return len(g.in[v]) }

// Degree returns the total (in+out) degree of v.
func (g *Graph) Degree(v NodeID) int { return len(g.out[v]) + len(g.in[v]) }

// Nodes returns all vertex IDs in increasing order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, len(g.names))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// Edges returns a copy of all directed edges, ordered by source vertex
// then insertion order. The copy is safe to mutate.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edgeCnt)
	for v := range g.out {
		es = append(es, g.out[v]...)
	}
	return es
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		names:   append([]string(nil), g.names...),
		out:     make([][]Edge, len(g.out)),
		in:      make([][]Edge, len(g.in)),
		edgeCnt: g.edgeCnt,
	}
	for v := range g.out {
		c.out[v] = append([]Edge(nil), g.out[v]...)
		c.in[v] = append([]Edge(nil), g.in[v]...)
	}
	return c
}

// RemoveNode deletes vertex v and every edge incident to it. Node IDs
// above v are renumbered down by one (IDs stay dense); the returned
// slice maps old IDs to new IDs (Invalid for v itself). Topology-size
// sweeps use this to shrink generated networks.
func (g *Graph) RemoveNode(v NodeID) []NodeID {
	if !g.Valid(v) {
		panic(fmt.Sprintf("graph: RemoveNode(%d) out of range", v))
	}
	remap := make([]NodeID, len(g.names))
	for id := range remap {
		switch {
		case NodeID(id) == v:
			remap[id] = Invalid
		case NodeID(id) > v:
			remap[id] = NodeID(id - 1)
		default:
			remap[id] = NodeID(id)
		}
	}
	names := make([]string, 0, len(g.names)-1)
	for id, n := range g.names {
		if NodeID(id) != v {
			names = append(names, n)
		}
	}
	rebuilt := &Graph{names: names}
	rebuilt.out = make([][]Edge, len(names))
	rebuilt.in = make([][]Edge, len(names))
	for _, e := range g.Edges() {
		if e.From == v || e.To == v {
			continue
		}
		rebuilt.AddWeightedEdge(remap[e.From], remap[e.To], e.Weight)
	}
	*g = *rebuilt
	return remap
}

// WeaklyConnected reports whether the graph is connected when edge
// directions are ignored. Empty graphs count as connected.
func (g *Graph) WeaklyConnected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[v] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
		for _, e := range g.in[v] {
			if !seen[e.From] {
				seen[e.From] = true
				count++
				stack = append(stack, e.From)
			}
		}
	}
	return count == n
}

// DOT renders the graph in Graphviz dot syntax, with vertices sorted
// by ID so output is deterministic.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph G {\n")
	for id, name := range g.names {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", id, name)
	}
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	for _, e := range es {
		fmt.Fprintf(&b, "  n%d -> n%d;\n", e.From, e.To)
	}
	b.WriteString("}\n")
	return b.String()
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(|V|=%d, |E|=%d)", g.NumNodes(), g.NumEdges())
}
