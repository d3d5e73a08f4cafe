package graph

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		id := g.AddNode("n")
		if int(id) != i {
			t.Fatalf("AddNode #%d returned id %d", i, id)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestAddNodesNamesAndFirstID(t *testing.T) {
	g := New()
	g.AddNode("seed")
	first := g.AddNodes(3)
	if first != 1 {
		t.Fatalf("AddNodes first = %d, want 1", first)
	}
	if g.Name(2) != "v2" {
		t.Fatalf("Name(2) = %q, want v2", g.Name(2))
	}
}

// TestReserveEdgesKeepsListsApart: reserved edge lists share one
// backing array per direction, yet keep the edges added before the
// reservation, fill in insertion order, and never spill into a
// neighbour's share when a list outgrows its own.
func TestReserveEdgesKeepsListsApart(t *testing.T) {
	build := func(reserve bool) *Graph {
		g := New()
		g.Grow(4)
		g.AddNodes(4)
		g.AddEdge(0, 1) // before the reservation
		if reserve {
			g.ReserveEdges([]int32{1, 1, 0, 1}, []int32{1, 1, 1, 0})
		}
		g.AddEdge(0, 2)
		g.AddEdge(1, 0)
		g.AddEdge(3, 2)
		g.AddEdge(1, 3) // past vertex 1's out share
		g.AddEdge(0, 3) // past vertex 0's out share
		return g
	}
	want, got := build(false), build(true)
	for v := range want.Nodes() {
		if w, g := want.Out(NodeID(v)), got.Out(NodeID(v)); !slices.Equal(w, g) {
			t.Errorf("Out(%d) = %v, want %v", v, g, w)
		}
		if w, g := want.In(NodeID(v)), got.In(NodeID(v)); !slices.Equal(w, g) {
			t.Errorf("In(%d) = %v, want %v", v, g, w)
		}
	}
	if got.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d, want 6", got.NumEdges())
	}
}

func TestNodeByName(t *testing.T) {
	g := New()
	a := g.AddNode("alpha")
	b := g.AddNode("beta")
	if got := g.NodeByName("beta"); got != b {
		t.Fatalf("NodeByName(beta) = %d, want %d", got, b)
	}
	if got := g.NodeByName("alpha"); got != a {
		t.Fatalf("NodeByName(alpha) = %d, want %d", got, a)
	}
	if got := g.NodeByName("gamma"); got != Invalid {
		t.Fatalf("NodeByName(gamma) = %d, want Invalid", got)
	}
	// Adding after the index was built must keep the index fresh.
	c := g.AddNode("gamma")
	if got := g.NodeByName("gamma"); got != c {
		t.Fatalf("NodeByName(gamma) after add = %d, want %d", got, c)
	}
}

func TestEdgesAndDegrees(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, c)
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.OutDegree(a) != 2 || g.InDegree(a) != 0 {
		t.Fatalf("degree(a) = out %d in %d, want 2/0", g.OutDegree(a), g.InDegree(a))
	}
	if g.Degree(c) != 2 {
		t.Fatalf("Degree(c) = %d, want 2", g.Degree(c))
	}
	if !g.HasEdge(a, b) || g.HasEdge(b, a) {
		t.Fatal("HasEdge direction broken")
	}
}

func TestAddBiEdge(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddBiEdge(a, b)
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Fatal("AddBiEdge must create both directions")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestAddEdgePanicsOnUnknownVertex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown vertex")
		}
	}()
	g := New()
	g.AddNode("a")
	g.AddEdge(0, 7)
}

func TestAddEdgePanicsOnNegativeWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative weight")
		}
	}()
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddWeightedEdge(a, b, -1)
}

func TestCloneIsDeep(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddNode("c") // leaves spare capacity in the name array
	g.AddEdge(a, b)
	c := g.Clone()
	c.AddEdge(b, a)
	added := c.AddNode("changed")
	if g.NumEdges() != 1 {
		t.Fatalf("clone mutation leaked: NumEdges = %d", g.NumEdges())
	}
	if g.NumNodes() != 3 || g.NodeByName("changed") != Invalid {
		t.Fatalf("clone mutation leaked: NumNodes = %d", g.NumNodes())
	}
	// Growing both sides must not share one name array.
	if g.AddNode("orig") != added || c.Name(added) != "changed" || g.Name(added) != "orig" {
		t.Fatalf("names alias across clones: clone %q, original %q", c.Name(added), g.Name(added))
	}
}

func TestRemoveNodeRenumbers(t *testing.T) {
	g := New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, d)
	g.AddEdge(a, d)
	remap := g.RemoveNode(b)
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if remap[int(b)] != Invalid {
		t.Fatalf("remap[b] = %d, want Invalid", remap[int(b)])
	}
	// a keeps ID, c and d shift down.
	if remap[int(c)] != 1 || remap[int(d)] != 2 {
		t.Fatalf("remap = %v", remap)
	}
	if g.Name(1) != "c" || g.Name(2) != "d" {
		t.Fatalf("names after removal: %q %q", g.Name(1), g.Name(2))
	}
	// Edges b->c and a->b vanished; c->d and a->d survive remapped.
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(0, 2) {
		t.Fatal("surviving edges not remapped correctly")
	}
}

func TestWeaklyConnected(t *testing.T) {
	g := New()
	if !g.WeaklyConnected() {
		t.Fatal("empty graph should be connected")
	}
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(a, b)
	if g.WeaklyConnected() {
		t.Fatal("c is isolated; graph must not be connected")
	}
	g.AddEdge(c, b) // direction against the flow: weak connectivity ignores it
	if !g.WeaklyConnected() {
		t.Fatal("graph should be weakly connected")
	}
}

func TestDOTDeterministic(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(b, a)
	g.AddEdge(a, b)
	d := g.DOT()
	if !strings.Contains(d, "n0 -> n1") || !strings.Contains(d, "n1 -> n0") {
		t.Fatalf("DOT output missing edges:\n%s", d)
	}
	if d != g.DOT() {
		t.Fatal("DOT output not deterministic")
	}
}

func line(n int) (*Graph, []NodeID) {
	g := New()
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode("")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(ids[i], ids[i+1])
	}
	return g, ids
}

func TestShortestPathLine(t *testing.T) {
	g, ids := line(5)
	p, err := g.ShortestPath(ids[0], ids[4])
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 || p.Src() != ids[0] || p.Dst() != ids[4] {
		t.Fatalf("path = %v", p)
	}
	if !p.Valid(g) {
		t.Fatal("path reported invalid")
	}
}

func TestShortestPathSelf(t *testing.T) {
	g, ids := line(2)
	p, err := g.ShortestPath(ids[1], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 || p.Src() != ids[1] {
		t.Fatalf("self path = %v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g, ids := line(3) // edges only forward
	if _, err := g.ShortestPath(ids[2], ids[0]); err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestShortestPathPicksMinimumHops(t *testing.T) {
	g := New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, d)
	g.AddEdge(a, d) // shortcut
	p, err := g.ShortestPath(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Fatalf("path len = %d, want 1 (%v)", p.Len(), p)
	}
}

func TestBFSDistances(t *testing.T) {
	g, ids := line(4)
	dist := g.BFSDistances(ids[0])
	for i, want := range []int{0, 1, 2, 3} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	back := g.BFSDistances(ids[3])
	if back[0] != math.MaxInt {
		t.Fatal("unreachable distance must be MaxInt")
	}
}

func TestDijkstraPrefersLightPath(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddWeightedEdge(a, c, 10)
	g.AddWeightedEdge(a, b, 1)
	g.AddWeightedEdge(b, c, 2)
	p, w, err := g.DijkstraPath(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if w != 3 || p.Len() != 2 {
		t.Fatalf("got weight %v path %v, want weight 3 via b", w, p)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if _, _, err := g.DijkstraPath(a, b); err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

// Property: on random connected digraphs, BFS hop counts equal
// Dijkstra weights when all edges weigh 1.
func TestBFSMatchesUnitDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		g := New()
		g.AddNodes(n)
		// Random spanning structure plus extra edges, all bidirectional.
		for i := 1; i < n; i++ {
			g.AddBiEdge(NodeID(rng.Intn(i)), NodeID(i))
		}
		for e := 0; e < n; e++ {
			g.AddBiEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n-1)))
		}
		src := NodeID(rng.Intn(n))
		dist := g.BFSDistances(src)
		for v := 0; v < n; v++ {
			if NodeID(v) == src {
				continue
			}
			_, w, err := g.DijkstraPath(src, NodeID(v))
			if err != nil {
				t.Fatalf("trial %d: dijkstra unreachable in connected graph", trial)
			}
			if int(w) != dist[v] {
				t.Fatalf("trial %d: BFS %d != Dijkstra %v for %d->%d", trial, dist[v], w, src, v)
			}
		}
	}
}

func TestPathDownstream(t *testing.T) {
	p := Path{5, 3, 1}
	if got := p.Downstream(5); got != 2 {
		t.Fatalf("Downstream(src) = %d, want 2", got)
	}
	if got := p.Downstream(3); got != 1 {
		t.Fatalf("Downstream(mid) = %d, want 1", got)
	}
	if got := p.Downstream(1); got != 0 {
		t.Fatalf("Downstream(dst) = %d, want 0", got)
	}
	if got := p.Downstream(9); got != -1 {
		t.Fatalf("Downstream(absent) = %d, want -1", got)
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{2, 0, 1}
	if !p.Contains(0) || p.Contains(3) {
		t.Fatal("Contains broken")
	}
	if p.Index(1) != 2 {
		t.Fatalf("Index = %d", p.Index(1))
	}
	c := p.Clone()
	c[0] = 9
	if p[0] != 2 {
		t.Fatal("Clone aliases original")
	}
	if p.String() != "2 -> 0 -> 1" {
		t.Fatalf("String = %q", p.String())
	}
}

// Property: Downstream(src) == Len and decreases by one per hop.
func TestDownstreamQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		// Build a path of distinct vertices 0..len-1.
		p := make(Path, len(raw))
		for i := range p {
			p[i] = NodeID(i)
		}
		for i, v := range p {
			if p.Downstream(v) != p.Len()-i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// With duplicated labels, NodeByName resolves to the lowest ID — the
// documented (and footgun-prone) half of the AddNode contract.
func TestNodeByNameDuplicatePicksLowestID(t *testing.T) {
	g := New()
	first := g.AddNode("dup")
	g.AddNode("dup")
	if got := g.NodeByName("dup"); got != first {
		t.Fatalf("NodeByName(dup) = %d, want lowest ID %d", got, first)
	}
	// Same answer when the index was built before the duplicate arrived.
	g2 := New()
	first2 := g2.AddNode("dup")
	_ = g2.NodeByName("dup") // force index build
	g2.AddNode("dup")
	if got := g2.NodeByName("dup"); got != first2 {
		t.Fatalf("NodeByName(dup) after lazy build = %d, want %d", got, first2)
	}
}
