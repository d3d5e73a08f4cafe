package graph

import (
	"errors"
	"fmt"
)

// Tree is a rooted-tree view over a Graph. The TDMD tree algorithms
// (Sec. 5 of the paper) require that all flow sources are leaves and
// all destinations equal the root; Tree supplies the parent/children/
// depth structure those algorithms consume.
//
// A Tree is immutable once built.
type Tree struct {
	G        *Graph
	Root     NodeID
	parent   []NodeID // parent[Root] == Invalid
	children [][]NodeID
	depth    []int
	order    []NodeID // post-order (children before parent)
}

// ErrNotTree is returned by NewTree when the graph's undirected
// skeleton is not a tree reachable from the chosen root.
var ErrNotTree = errors.New("graph: not a tree rooted at the given vertex")

// NewTree interprets g as a tree rooted at root. Edges may point in
// either direction (generators typically add bidirectional links); the
// orientation is recovered by a traversal from the root. It fails if
// the graph is disconnected from root or contains a cycle.
func NewTree(g *Graph, root NodeID) (*Tree, error) {
	if !g.Valid(root) {
		return nil, fmt.Errorf("graph: NewTree: invalid root %d", root)
	}
	n := g.NumNodes()
	t := &Tree{
		G:        g,
		Root:     root,
		parent:   make([]NodeID, n),
		children: make([][]NodeID, n),
		depth:    make([]int, n),
	}
	for i := range t.parent {
		t.parent[i] = Invalid
		t.depth[i] = -1
	}
	t.depth[root] = 0
	// Iterative DFS so deep trees cannot overflow the goroutine stack.
	type frame struct {
		v    NodeID
		next int // index into v's out-edges, then its in-edges
	}
	stack := []frame{{v: root}}
	visited := 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		out, in := g.Out(f.v), g.In(f.v)
		var u NodeID
		switch {
		case f.next < len(out):
			u = out[f.next].To
		case f.next < len(out)+len(in):
			u = in[f.next-len(out)].From
		default:
			t.order = append(t.order, f.v)
			stack = stack[:len(stack)-1]
			continue
		}
		f.next++
		if u == f.v {
			return nil, ErrNotTree // self-loop
		}
		if t.depth[u] >= 0 {
			// Re-seeing the parent or an already-claimed child is the
			// normal consequence of bidirectional link pairs; any other
			// visited neighbour means an undirected cycle.
			if u != t.parent[f.v] && t.parent[u] != f.v {
				return nil, ErrNotTree
			}
			continue
		}
		t.parent[u] = f.v
		t.depth[u] = t.depth[f.v] + 1
		t.children[f.v] = append(t.children[f.v], u)
		visited++
		stack = append(stack, frame{v: u})
	}
	if visited != n {
		return nil, ErrNotTree
	}
	return t, nil
}

// Parent returns v's parent, or Invalid for the root.
func (t *Tree) Parent(v NodeID) NodeID { return t.parent[v] }

// Children returns v's children. The slice is owned by the tree.
func (t *Tree) Children(v NodeID) []NodeID { return t.children[v] }

// Depth returns the number of edges between v and the root.
func (t *Tree) Depth(v NodeID) int { return t.depth[v] }

// IsLeaf reports whether v has no children. A single-vertex tree's
// root is a leaf.
func (t *Tree) IsLeaf(v NodeID) bool { return len(t.children[v]) == 0 }

// Leaves returns all leaves in increasing ID order.
func (t *Tree) Leaves() []NodeID {
	var ls []NodeID
	for v := 0; v < t.G.NumNodes(); v++ {
		if t.IsLeaf(NodeID(v)) {
			ls = append(ls, NodeID(v))
		}
	}
	return ls
}

// PostOrder returns every vertex with children preceding parents.
// The slice is owned by the tree.
func (t *Tree) PostOrder() []NodeID { return t.order }

// PathToRoot returns the path v -> parent(v) -> ... -> root.
func (t *Tree) PathToRoot(v NodeID) Path {
	p := Path{v}
	for v != t.Root {
		v = t.parent[v]
		p = append(p, v)
	}
	return p
}

// IsAncestor reports whether a is an ancestor of v (every vertex is an
// ancestor of itself, matching the paper's LCA convention).
func (t *Tree) IsAncestor(a, v NodeID) bool {
	for t.depth[v] > t.depth[a] {
		v = t.parent[v]
	}
	return v == a
}

// NaiveLCA computes the lowest common ancestor by walking parents.
// O(depth); package lca provides an O(1)-query oracle, and its tests
// compare it against this reference.
func (t *Tree) NaiveLCA(a, b NodeID) NodeID {
	for t.depth[a] > t.depth[b] {
		a = t.parent[a]
	}
	for t.depth[b] > t.depth[a] {
		b = t.parent[b]
	}
	for a != b {
		a = t.parent[a]
		b = t.parent[b]
	}
	return a
}

// SubtreeNodes returns every vertex of the subtree rooted at v,
// in post-order.
func (t *Tree) SubtreeNodes(v NodeID) []NodeID {
	var out []NodeID
	var walk func(u NodeID)
	walk = func(u NodeID) {
		for _, c := range t.children[u] {
			walk(c)
		}
		out = append(out, u)
	}
	walk(v)
	return out
}
