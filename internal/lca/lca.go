// Package lca provides a lowest-common-ancestor oracle over rooted
// trees. The paper's HAT heuristic (Alg. 2) performs O(|V|) LCA
// queries per merge round and cites Schieber–Vishkin [29] for fast
// queries; Sparse answers them with an Euler tour plus a sparse-table
// range-minimum: O(n log n) preprocessing, O(1) query (the classical
// reduction equivalent in power to Schieber–Vishkin on a RAM). The
// tests verify it against the naive parent-walk graph.Tree.NaiveLCA.
package lca

import "tdmd/internal/graph"

// Sparse is an Euler-tour sparse-table LCA oracle with O(1) queries.
type Sparse struct {
	first []int          // first[v] = index of v's first Euler occurrence
	euler []graph.NodeID // Euler tour of the tree
	depth []int          // depth[i] = depth of euler[i]
	table [][]int32      // table[j][i] = index of min-depth entry in euler[i:i+2^j]
	logs  []int          // logs[x] = floor(log2 x)
}

// NewSparse preprocesses t for O(1) LCA queries.
func NewSparse(t *graph.Tree) *Sparse {
	n := t.G.NumNodes()
	s := &Sparse{first: make([]int, n)}
	for i := range s.first {
		s.first[i] = -1
	}
	// Iterative Euler tour.
	type frame struct {
		v    graph.NodeID
		next int
	}
	stack := []frame{{v: t.Root}}
	visit := func(v graph.NodeID) {
		if s.first[v] < 0 {
			s.first[v] = len(s.euler)
		}
		s.euler = append(s.euler, v)
		s.depth = append(s.depth, t.Depth(v))
	}
	visit(t.Root)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := t.Children(f.v)
		if f.next >= len(kids) {
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				visit(stack[len(stack)-1].v)
			}
			continue
		}
		c := kids[f.next]
		f.next++
		visit(c)
		stack = append(stack, frame{v: c})
	}
	m := len(s.euler)
	s.logs = make([]int, m+1)
	for x := 2; x <= m; x++ {
		s.logs[x] = s.logs[x/2] + 1
	}
	levels := s.logs[m] + 1
	s.table = make([][]int32, levels)
	s.table[0] = make([]int32, m)
	for i := 0; i < m; i++ {
		s.table[0][i] = int32(i)
	}
	for j := 1; j < levels; j++ {
		width := 1 << j
		s.table[j] = make([]int32, m-width+1)
		for i := 0; i+width <= m; i++ {
			a, b := s.table[j-1][i], s.table[j-1][i+width/2]
			if s.depth[a] <= s.depth[b] {
				s.table[j][i] = a
			} else {
				s.table[j][i] = b
			}
		}
	}
	return s
}

// LCA returns the lowest common ancestor of a and b. Every vertex is
// an ancestor of itself.
func (s *Sparse) LCA(a, b graph.NodeID) graph.NodeID {
	i, j := s.first[a], s.first[b]
	if i > j {
		i, j = j, i
	}
	width := j - i + 1
	k := s.logs[width]
	x, y := s.table[k][i], s.table[k][j+1-(1<<k)]
	if s.depth[x] <= s.depth[y] {
		return s.euler[x]
	}
	return s.euler[y]
}
