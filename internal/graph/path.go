package graph

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Path is an ordered walk through the graph, stored as the vertex
// sequence src .. dst. A valid path has at least one vertex; a
// single-vertex path has zero edges.
type Path []NodeID

// ErrNoPath is returned by the shortest-path routines when the
// destination is unreachable from the source.
var ErrNoPath = errors.New("graph: no path between vertices")

// Src returns the first vertex of the path.
func (p Path) Src() NodeID { return p[0] }

// Dst returns the last vertex of the path.
func (p Path) Dst() NodeID { return p[len(p)-1] }

// Len returns the number of edges, |p_f| in the paper's notation.
func (p Path) Len() int { return len(p) - 1 }

// Contains reports whether v lies on the path.
func (p Path) Contains(v NodeID) bool {
	for _, u := range p {
		if u == v {
			return true
		}
	}
	return false
}

// Index returns the position of v on the path (0 = source), or -1.
func (p Path) Index(v NodeID) int {
	for i, u := range p {
		if u == v {
			return i
		}
	}
	return -1
}

// Downstream returns the number of edges from v to the destination:
// l_v(f) in the model used throughout this repository (see DESIGN.md,
// "Model clarification"). It returns -1 if v is not on the path.
func (p Path) Downstream(v NodeID) int {
	i := p.Index(v)
	if i < 0 {
		return -1
	}
	return p.Len() - i
}

// Valid reports whether every consecutive vertex pair is joined by a
// directed edge of g.
func (p Path) Valid(g *Graph) bool {
	if len(p) == 0 {
		return false
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.Valid(p[i]) || !g.Valid(p[i+1]) || !g.HasEdge(p[i], p[i+1]) {
			return false
		}
	}
	return g.Valid(p[len(p)-1])
}

// Clone returns an independent copy of the path.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// String renders the path as "v0 -> v3 -> v1".
func (p Path) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, " -> ")
}

// ShortestPath returns a minimum-hop path from src to dst using BFS.
func (g *Graph) ShortestPath(src, dst NodeID) (Path, error) {
	if !g.Valid(src) || !g.Valid(dst) {
		return nil, fmt.Errorf("graph: ShortestPath(%d, %d): unknown vertex", src, dst)
	}
	if src == dst {
		return Path{src}, nil
	}
	prev := make([]NodeID, g.NumNodes())
	for i := range prev {
		prev[i] = Invalid
	}
	queue := []NodeID{src}
	prev[src] = src
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.out[v] {
			if prev[e.To] != Invalid {
				continue
			}
			prev[e.To] = v
			if e.To == dst {
				return buildPath(prev, src, dst), nil
			}
			queue = append(queue, e.To)
		}
	}
	return nil, ErrNoPath
}

// BFSDistances returns the hop distance from src to every vertex
// (math.MaxInt for unreachable vertices).
func (g *Graph) BFSDistances(src NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = math.MaxInt
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.out[v] {
			if dist[e.To] == math.MaxInt {
				dist[e.To] = dist[v] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

func buildPath(prev []NodeID, src, dst NodeID) Path {
	var rev Path
	for v := dst; ; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
