package topology

import (
	"testing"

	"tdmd/internal/graph"
)

func TestLeafSpine(t *testing.T) {
	g := LeafSpine(4, 8)
	if g.NumNodes() != 12 {
		t.Fatalf("|V| = %d", g.NumNodes())
	}
	// 4*8 bidirectional links.
	if g.NumEdges() != 64 {
		t.Fatalf("|E| = %d", g.NumEdges())
	}
	// Every leaf-to-leaf path is 2 hops via any spine.
	a := g.NodeByName("leaf0")
	b := g.NodeByName("leaf7")
	p, err := g.ShortestPath(a, b)
	if err != nil || p.Len() != 2 {
		t.Fatalf("leaf-leaf path = %v err=%v", p, err)
	}
	for s := 0; s < 4; s++ {
		if g.Degree(graph.NodeID(s)) != 16 {
			t.Fatalf("spine degree = %d", g.Degree(graph.NodeID(s)))
		}
	}
}

func TestJellyfishRegularConnected(t *testing.T) {
	for _, cfg := range [][2]int{{10, 3}, {16, 4}, {20, 5}} {
		n, d := cfg[0], cfg[1]
		g := Jellyfish(n, d, 11)
		if g.NumNodes() != n {
			t.Fatalf("n=%d d=%d: |V|=%d", n, d, g.NumNodes())
		}
		if !g.WeaklyConnected() {
			t.Fatalf("n=%d d=%d: disconnected", n, d)
		}
		for _, v := range g.Nodes() {
			if g.Degree(v) != 2*d {
				t.Fatalf("n=%d d=%d: degree(%d) = %d, want %d", n, d, v, g.Degree(v), 2*d)
			}
		}
		// No self-loops or duplicate links.
		seen := map[[2]graph.NodeID]bool{}
		for _, e := range g.Edges() {
			if e.From == e.To {
				t.Fatal("self-loop")
			}
			key := [2]graph.NodeID{e.From, e.To}
			if seen[key] {
				t.Fatal("duplicate link")
			}
			seen[key] = true
		}
	}
}

func TestJellyfishDeterministic(t *testing.T) {
	if Jellyfish(12, 3, 5).DOT() != Jellyfish(12, 3, 5).DOT() {
		t.Fatal("same seed differs")
	}
}

func TestJellyfishRejectsOddStubs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd n·d accepted")
		}
	}()
	Jellyfish(5, 3, 1)
}
