package routing

import (
	"math/rand"
	"sort"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/topology"
)

// diamond builds a -> {b, c} -> d plus a long detour a -> e -> f -> d.
func diamond() (*graph.Graph, []graph.NodeID) {
	g := graph.New()
	ids := make([]graph.NodeID, 6)
	for i, name := range []string{"a", "b", "c", "d", "e", "f"} {
		ids[i] = g.AddNode(name)
	}
	a, b, c, d, e, f := ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	g.AddEdge(a, e)
	g.AddEdge(e, f)
	g.AddEdge(f, d)
	return g, ids
}

func TestKShortestDiamond(t *testing.T) {
	g, ids := diamond()
	paths, err := KShortest(g, ids[0], ids[3], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("paths = %d, want 3 (two 2-hop, one 3-hop)", len(paths))
	}
	if paths[0].Len() != 2 || paths[1].Len() != 2 || paths[2].Len() != 3 {
		t.Fatalf("lengths = %d,%d,%d", paths[0].Len(), paths[1].Len(), paths[2].Len())
	}
	// Lexicographic order among equal lengths: via b (id 1) before via
	// c (id 2).
	if paths[0][1] != ids[1] || paths[1][1] != ids[2] {
		t.Fatalf("tie order wrong: %v, %v", paths[0], paths[1])
	}
	for _, p := range paths {
		if !p.Valid(g) {
			t.Fatalf("invalid path %v", p)
		}
	}
}

func TestKShortestK1MatchesBFS(t *testing.T) {
	g := topology.GeneralRandom(25, 0.8, 3)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		src := graph.NodeID(rng.Intn(25))
		dst := graph.NodeID(rng.Intn(25))
		if src == dst {
			continue
		}
		ks, err := KShortest(g, src, dst, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.ShortestPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if ks[0].Len() != want.Len() {
			t.Fatalf("k=1 length %d != BFS %d", ks[0].Len(), want.Len())
		}
	}
}

func TestKShortestLoopless(t *testing.T) {
	g := topology.GeneralRandom(15, 1.0, 7)
	paths, err := KShortest(g, 0, 14, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		seen := map[graph.NodeID]bool{}
		for _, v := range p {
			if seen[v] {
				t.Fatalf("loop in path %v", p)
			}
			seen[v] = true
		}
	}
	// Lengths non-decreasing.
	for i := 1; i < len(paths); i++ {
		if paths[i].Len() < paths[i-1].Len() {
			t.Fatalf("lengths decrease: %v", paths)
		}
	}
}

func TestKShortestNoPath(t *testing.T) {
	g := graph.New()
	g.AddNodes(2)
	if _, err := KShortest(g, 0, 1, 3); err == nil {
		t.Fatal("unreachable pair accepted")
	}
	if _, err := KShortest(g, 0, 1, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestECMPPathsDiamond(t *testing.T) {
	g, ids := diamond()
	paths, err := ECMPPaths(g, ids[0], ids[3], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("ECMP set = %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		if p.Len() != 2 {
			t.Fatalf("non-shortest in ECMP set: %v", p)
		}
	}
}

func TestECMPPathsFatTree(t *testing.T) {
	g := topology.FatTree(4)
	src := g.NodeByName("edge0.0")
	dst := g.NodeByName("edge1.0")
	paths, err := ECMPPaths(g, src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	// edge -> agg (2 choices) -> core (2 each) -> agg -> edge = 4 paths.
	if len(paths) != 4 {
		t.Fatalf("fat-tree ECMP = %d paths, want 4", len(paths))
	}
	for _, p := range paths {
		if p.Len() != 4 {
			t.Fatalf("path length %d, want 4 (%v)", p.Len(), p)
		}
	}
}

func TestECMPPathsCap(t *testing.T) {
	g := topology.FatTree(4)
	src := g.NodeByName("edge0.0")
	dst := g.NodeByName("edge1.0")
	paths, err := ECMPPaths(g, src, dst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("cap ignored: %d paths", len(paths))
	}
}

func TestECMPPathsUnreachable(t *testing.T) {
	g := graph.New()
	g.AddNodes(2)
	if _, err := ECMPPaths(g, 0, 1, 0); err != graph.ErrNoPath {
		t.Fatalf("err = %v", err)
	}
}

func TestHashSelectStableAndSpreads(t *testing.T) {
	g, ids := diamond()
	paths, err := ECMPPaths(g, ids[0], ids[3], 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for id := 0; id < 200; id++ {
		p := HashSelect(paths, id)
		if q := HashSelect(paths, id); q.String() != p.String() {
			t.Fatal("HashSelect not stable")
		}
		counts[p.String()]++
	}
	if len(counts) != 2 {
		t.Fatalf("hash selection used %d paths, want 2", len(counts))
	}
	for k, c := range counts {
		if c < 50 {
			t.Fatalf("imbalanced spreading: %v", counts)
		}
		_ = k
	}
	if HashSelect(nil, 3) != nil {
		t.Fatal("empty candidate set must return nil")
	}
}

// allSimplePaths enumerates every loopless path (DFS); the reference
// KShortest is checked against.
func allSimplePaths(g *graph.Graph, src, dst graph.NodeID) []graph.Path {
	var out []graph.Path
	onPath := map[graph.NodeID]bool{src: true}
	cur := graph.Path{src}
	var walk func(v graph.NodeID)
	walk = func(v graph.NodeID) {
		if v == dst {
			out = append(out, cur.Clone())
			return
		}
		for _, e := range g.Out(v) {
			if onPath[e.To] {
				continue
			}
			onPath[e.To] = true
			cur = append(cur, e.To)
			walk(e.To)
			cur = cur[:len(cur)-1]
			delete(onPath, e.To)
		}
	}
	walk(src)
	return out
}

// Differential property: KShortest's i-th path length matches the
// i-th smallest simple-path length from exhaustive enumeration.
func TestKShortestMatchesBruteForceLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(5)
		g := topology.GeneralRandom(n, 0.8, rng.Int63())
		src := graph.NodeID(rng.Intn(n))
		dst := graph.NodeID(rng.Intn(n))
		if src == dst {
			continue
		}
		all := allSimplePaths(g, src, dst)
		if len(all) == 0 {
			continue
		}
		lengths := make([]int, len(all))
		for i, p := range all {
			lengths[i] = p.Len()
		}
		sort.Ints(lengths)
		k := len(all)
		if k > 6 {
			k = 6
		}
		got, err := KShortest(g, src, dst, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != k {
			t.Fatalf("trial %d: got %d paths, want %d (of %d simple paths)", trial, len(got), k, len(all))
		}
		for i := range got {
			if got[i].Len() != lengths[i] {
				t.Fatalf("trial %d: path %d has length %d, want %d", trial, i, got[i].Len(), lengths[i])
			}
		}
	}
}
