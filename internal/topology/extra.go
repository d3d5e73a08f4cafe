package topology

import (
	"fmt"
	"math/rand"

	"tdmd/internal/graph"
)

// Two further data-center / WAN fabrics (leaf-spine, Jellyfish)
// broadening the evaluation beyond the paper's topologies.

// LeafSpine returns a two-tier Clos fabric: every one of `leaves` leaf
// switches connects to every one of `spines` spine switches. Spines
// come first (IDs 0..spines-1), then leaves.
func LeafSpine(spines, leaves int) *graph.Graph {
	if spines < 1 || leaves < 1 {
		panic("topology: LeafSpine needs spines, leaves >= 1")
	}
	g := graph.New()
	for s := 0; s < spines; s++ {
		g.AddNode(fmt.Sprintf("spine%d", s))
	}
	for l := 0; l < leaves; l++ {
		id := g.AddNode(fmt.Sprintf("leaf%d", l))
		for s := 0; s < spines; s++ {
			g.AddBiEdge(graph.NodeID(s), id)
		}
	}
	return g
}

// Jellyfish returns a random (approximately) d-regular graph over n
// switches [Singla et al., NSDI'12]: the degree-constrained random
// topology that outperforms structured fabrics at equal cost. Uses the
// pairing model with retries; the result is connected (regenerated
// internally until it is) and has no self-loops or duplicate links.
func Jellyfish(n, d int, seed int64) *graph.Graph {
	if n < 2 || d < 1 || d >= n {
		panic(fmt.Sprintf("topology: Jellyfish needs 2 <= d+1 <= n, got n=%d d=%d", n, d))
	}
	if n*d%2 != 0 {
		panic("topology: Jellyfish needs n·d even")
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; ; attempt++ {
		if g, ok := tryJellyfish(n, d, rng); ok {
			return g
		}
		if attempt > 200 {
			panic("topology: Jellyfish failed to build a connected regular graph")
		}
	}
}

func tryJellyfish(n, d int, rng *rand.Rand) (*graph.Graph, bool) {
	// Pairing model: d stubs per vertex, random perfect matching.
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := graph.New()
	g.AddNodes(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		if a == b || g.HasEdge(graph.NodeID(a), graph.NodeID(b)) {
			return nil, false // reject and retry
		}
		g.AddBiEdge(graph.NodeID(a), graph.NodeID(b))
	}
	return g, g.WeaklyConnected()
}
