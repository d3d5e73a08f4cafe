// Package routing computes the flow paths the TDMD model takes as
// given ("all flows' paths are predetermined and valid", Sec. 3.1):
// single shortest paths, Yen's k-shortest loopless paths, and ECMP
// path enumeration with deterministic hashing. The workload generators
// route over this substrate; users with their own routing can bypass
// it entirely.
package routing

import (
	"fmt"
	"sort"

	"tdmd/internal/graph"
	"tdmd/internal/stats"
)

// KShortest returns up to k loopless minimum-hop paths from src to dst
// in increasing length (ties broken lexicographically by vertex IDs),
// using Yen's algorithm over BFS shortest paths. It returns at least
// one path or graph.ErrNoPath.
func KShortest(g *graph.Graph, src, dst graph.NodeID, k int) ([]graph.Path, error) {
	if k < 1 {
		return nil, fmt.Errorf("routing: KShortest needs k >= 1, got %d", k)
	}
	first, err := shortestLex(g, src, dst, nil, nil)
	if err != nil {
		return nil, err
	}
	paths := []graph.Path{first}
	var candidates []graph.Path
	for len(paths) < k {
		prev := paths[len(paths)-1]
		// Spur from every prefix of the previous path.
		for i := 0; i < prev.Len(); i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]
			// Edges to remove: the next hop of every accepted path
			// sharing this root.
			banEdges := map[[2]graph.NodeID]bool{}
			for _, p := range paths {
				if len(p) > i && pathPrefixEq(p, rootPath) {
					banEdges[[2]graph.NodeID{p[i], p[i+1]}] = true
				}
			}
			// Vertices of the root (minus the spur) are banned to keep
			// paths loopless.
			banVerts := map[graph.NodeID]bool{}
			for _, v := range rootPath[:i] {
				banVerts[v] = true
			}
			spurPath, err := shortestLex(g, spurNode, dst, banVerts, banEdges)
			if err != nil {
				continue
			}
			full := append(rootPath.Clone()[:i], spurPath...)
			if !containsPath(paths, full) && !containsPath(candidates, full) {
				candidates = append(candidates, full)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if candidates[a].Len() != candidates[b].Len() {
				return candidates[a].Len() < candidates[b].Len()
			}
			return lexLess(candidates[a], candidates[b])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

// shortestLex is BFS shortest path with banned vertices/edges and
// lexicographic tie-breaking (smallest next vertex first), which makes
// every routing decision in this package deterministic.
func shortestLex(g *graph.Graph, src, dst graph.NodeID, banVerts map[graph.NodeID]bool, banEdges map[[2]graph.NodeID]bool) (graph.Path, error) {
	if banVerts[src] {
		return nil, graph.ErrNoPath
	}
	if src == dst {
		return graph.Path{src}, nil
	}
	n := g.NumNodes()
	prev := make([]graph.NodeID, n)
	for i := range prev {
		prev[i] = graph.Invalid
	}
	prev[src] = src
	frontier := []graph.NodeID{src}
	for len(frontier) > 0 {
		// Expand in sorted order for lexicographic determinism.
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		var next []graph.NodeID
		for _, v := range frontier {
			outs := append([]graph.Edge(nil), g.Out(v)...)
			sort.Slice(outs, func(i, j int) bool { return outs[i].To < outs[j].To })
			for _, e := range outs {
				if banVerts[e.To] || banEdges[[2]graph.NodeID{v, e.To}] || prev[e.To] != graph.Invalid {
					continue
				}
				prev[e.To] = v
				next = append(next, e.To)
			}
		}
		for _, v := range next {
			if v == dst {
				var rev graph.Path
				for u := dst; ; u = prev[u] {
					rev = append(rev, u)
					if u == src {
						break
					}
				}
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev, nil
			}
		}
		frontier = next
	}
	return nil, graph.ErrNoPath
}

// ECMPPaths enumerates minimum-hop paths from src to dst (the
// equal-cost multipath set) in lexicographic order, capped at limit to
// stay sane on fabrics with exponentially many shortest paths
// (limit <= 0 means no cap). It walks the shortest-path DAG induced by
// distances to the destination.
func ECMPPaths(g *graph.Graph, src, dst graph.NodeID, limit int) ([]graph.Path, error) {
	// distTo[v] = hops from v to dst, computed by BFS on the reversed
	// graph.
	n := g.NumNodes()
	distTo := make([]int, n)
	for i := range distTo {
		distTo[i] = -1
	}
	distTo[dst] = 0
	queue := []graph.NodeID{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.In(v) {
			if distTo[e.From] < 0 {
				distTo[e.From] = distTo[v] + 1
				queue = append(queue, e.From)
			}
		}
	}
	if distTo[src] < 0 {
		return nil, graph.ErrNoPath
	}
	var out []graph.Path
	cur := graph.Path{src}
	var walk func(v graph.NodeID) bool // returns false when the cap is hit
	walk = func(v graph.NodeID) bool {
		if v == dst {
			out = append(out, cur.Clone())
			return limit <= 0 || len(out) < limit
		}
		outs := append([]graph.Edge(nil), g.Out(v)...)
		sort.Slice(outs, func(i, j int) bool { return outs[i].To < outs[j].To })
		for _, e := range outs {
			if distTo[e.To] != distTo[v]-1 {
				continue
			}
			cur = append(cur, e.To)
			ok := walk(e.To)
			cur = cur[:len(cur)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	walk(src)
	return out, nil
}

// pathPrefixEq reports whether p starts with the `len(prefix)` vertices
// of prefix.
func pathPrefixEq(p graph.Path, prefix graph.Path) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func containsPath(ps []graph.Path, q graph.Path) bool {
	for _, p := range ps {
		if len(p) == len(q) && pathPrefixEq(p, q) {
			return true
		}
	}
	return false
}

func lexLess(a, b graph.Path) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// HashSelect picks one of the candidate paths for a flow by a stable
// hash of its identifier — deterministic ECMP-style spreading.
func HashSelect(paths []graph.Path, flowID int) graph.Path {
	if len(paths) == 0 {
		return nil
	}
	h := stats.SplitMix64(uint64(flowID))
	return paths[h%uint64(len(paths))]
}
