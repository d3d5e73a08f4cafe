package placement

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// Ablation benchmarks for the design choices DESIGN.md calls out:
// lazy vs. plain greedy evaluation, heap-based vs. brute-force HAT
// pair selection, and the same-source flow merge the paper applies
// before the DP.

func benchGeneralInstance(b *testing.B, n, flows int) *netsim.Instance {
	b.Helper()
	g := topology.GeneralRandom(n, 0.8, 7)
	fl := traffic.GeneralFlows(g, []graph.NodeID{0, 1}, traffic.GenConfig{
		Density: 0.6, Seed: 9, MaxFlows: flows})
	if len(fl) == 0 {
		b.Skip("no flows generated")
	}
	return netsim.MustNew(g, fl, 0.5)
}

// BenchmarkAblationGTPLazyVsPlain quantifies the lazy-evaluation
// speedup enabled by submodularity (Theorem 2).
func BenchmarkAblationGTPLazyVsPlain(b *testing.B) {
	for _, n := range []int{50, 150} {
		in := benchGeneralInstance(b, n, 4*n)
		b.Run(fmt.Sprintf("plain/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GTP(context.Background(), in)
			}
		})
		b.Run(fmt.Sprintf("lazy/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GTPLazy(context.Background(), in)
			}
		})
	}
}

func benchTreeInstance(b *testing.B, n int) (*netsim.Instance, *graph.Tree, []traffic.Flow) {
	b.Helper()
	g := topology.RandomTree(n, 0, 7)
	tree, err := graph.NewTree(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	dist := traffic.DefaultCAIDALike()
	dist.Cap = 8
	flows := traffic.TreeFlows(tree, traffic.GenConfig{
		Density: 0.5, LinkCapacity: 30, Dist: dist, Seed: 11})
	if len(flows) == 0 {
		b.Skip("no flows generated")
	}
	return netsim.MustNew(g, flows, 0.5), tree, flows
}

// BenchmarkAblationHATHeapVsBrute quantifies the min-heap's value over
// rescanning all pairs each merge round (the O(|V|² log |V|) analysis
// of Theorem 6).
func BenchmarkAblationHATHeapVsBrute(b *testing.B) {
	for _, n := range []int{60, 200} {
		in, tree, _ := benchTreeInstance(b, n)
		b.Run(fmt.Sprintf("heap/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := HAT(context.Background(), in, tree, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("brute/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := HATWithTrace(context.Background(), in, tree, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDPMerge quantifies the paper's same-source merge
// preprocessing: without it, the DP's flow count (and so its b
// dimension bookkeeping) balloons.
func BenchmarkAblationDPMerge(b *testing.B) {
	inRaw, tree, flows := benchTreeInstance(b, 40)
	merged := traffic.MergeSameSource(flows)
	inMerged := netsim.MustNew(inRaw.G, merged, 0.5)
	b.Run("unmerged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := TreeDP(context.Background(), inRaw, tree, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := TreeDP(context.Background(), inMerged, tree, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationScaledDP quantifies the rate-scaling extension on a
// heavy-rate workload.
func BenchmarkAblationScaledDP(b *testing.B) {
	g := topology.RandomTree(24, 0, 7)
	tree, err := graph.NewTree(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var flows []traffic.Flow
	for _, leaf := range tree.Leaves() {
		flows = append(flows, traffic.Flow{
			ID: len(flows), Rate: 100 + rng.Intn(300), Path: tree.PathToRoot(leaf)})
	}
	in := netsim.MustNew(g, flows, 0.5)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := TreeDP(context.Background(), in, tree, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, limit := range []int{256, 64} {
		b.Run(fmt.Sprintf("scaled-limit=%d", limit), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ScaledTreeDP(context.Background(), in, tree, 6, ScaledDPOpts{MaxTotalRate: limit}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBudgetGuard measures the cost of GTPBudget's
// feasibility guard versus the unguarded greedy.
func BenchmarkAblationBudgetGuard(b *testing.B) {
	in := benchGeneralInstance(b, 80, 200)
	b.Run("guarded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GTPBudget(context.Background(), in, 20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unguarded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GTP(context.Background(), in)
		}
	})
}
