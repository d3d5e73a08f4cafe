package lca

import (
	"math/rand"
	"testing"

	"tdmd/internal/graph"
)

// randomTree builds a random rooted tree with n vertices.
func randomTree(n int, rng *rand.Rand) *graph.Tree {
	g := graph.New()
	g.AddNodes(n)
	for i := 1; i < n; i++ {
		g.AddBiEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i))
	}
	t, err := graph.NewTree(g, 0)
	if err != nil {
		panic(err)
	}
	return t
}

// pathTree builds a degenerate path 0 - 1 - ... - n-1 rooted at 0.
func pathTree(n int) *graph.Tree {
	g := graph.New()
	g.AddNodes(n)
	for i := 1; i < n; i++ {
		g.AddBiEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	t, err := graph.NewTree(g, 0)
	if err != nil {
		panic(err)
	}
	return t
}

func fig5(t *testing.T) *graph.Tree {
	t.Helper()
	g := graph.New()
	g.AddNodes(8)
	for _, p := range [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {5, 6}, {5, 7}} {
		g.AddBiEdge(p[0], p[1])
	}
	tr, err := graph.NewTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSparsePaperExamples(t *testing.T) {
	tr := fig5(t)
	o := NewSparse(tr)
	cases := []struct{ a, b, want graph.NodeID }{
		{3, 4, 1}, {0, 5, 0}, {6, 7, 5}, {3, 6, 0}, {5, 5, 5}, {2, 7, 2},
	}
	for _, c := range cases {
		if got := o.LCA(c.a, c.b); got != c.want {
			t.Fatalf("Sparse LCA(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	n := tr.G.NumNodes()
	for a := graph.NodeID(0); int(a) < n; a++ {
		for b := graph.NodeID(0); int(b) < n; b++ {
			if got, want := o.LCA(a, b), tr.NaiveLCA(a, b); got != want {
				t.Fatalf("Sparse LCA(%d,%d) = %d, naive %d", a, b, got, want)
			}
		}
	}
}

func TestOraclesAgreeOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(120)
		tr := randomTree(n, rng)
		sparse := NewSparse(tr)
		for q := 0; q < 200; q++ {
			a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			want := tr.NaiveLCA(a, b)
			if got := sparse.LCA(a, b); got != want {
				t.Fatalf("n=%d Sparse LCA(%d,%d) = %d, want %d", n, a, b, got, want)
			}
		}
	}
}

func TestOraclesOnPathTree(t *testing.T) {
	tr := pathTree(64)
	sparse := NewSparse(tr)
	for a := 0; a < 64; a += 7 {
		for b := 0; b < 64; b += 5 {
			want := graph.NodeID(min(a, b))
			if naive := tr.NaiveLCA(graph.NodeID(a), graph.NodeID(b)); naive != want {
				t.Fatalf("naive path LCA(%d,%d) = %d", a, b, naive)
			}
			if got := sparse.LCA(graph.NodeID(a), graph.NodeID(b)); got != want {
				t.Fatalf("Sparse path LCA(%d,%d) = %d", a, b, got)
			}
		}
	}
}

func TestSingleVertexTree(t *testing.T) {
	g := graph.New()
	g.AddNode("r")
	tr, err := graph.NewTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := NewSparse(tr).LCA(0, 0); got != tr.NaiveLCA(0, 0) {
		t.Fatalf("LCA on singleton = %d", got)
	}
}

func BenchmarkSparseLCA(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := randomTree(4096, rng)
	o := NewSparse(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.LCA(graph.NodeID(i%4096), graph.NodeID((i*31)%4096))
	}
}
