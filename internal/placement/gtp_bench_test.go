package placement

import (
	"context"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// BenchmarkGTPBudget solves one online-hot problem, 1500 shortest-path
// flows to three hubs on a |V|=200 random topology at λ = 0.5, with
// the budgeted greedy at k = 8 (gtp) and the same greedy followed by
// the swap pass (gtp-ls). Both rows run the budget guard every greedy
// round. Only the solve is timed.
func BenchmarkGTPBudget(b *testing.B) {
	g := topology.GeneralRandom(200, 0.5, 1)
	fl := traffic.GeneralFlows(g, []graph.NodeID{0, 1, 2}, traffic.GenConfig{
		Density: 1e12, Seed: 2, MaxFlows: 1500})
	if len(fl) != 1500 {
		b.Fatalf("workload generation produced %d flows, want 1500", len(fl))
	}
	in := netsim.MustNew(g, fl, 0.5)
	const k = 8
	b.Run("gtp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := GTPBudget(context.Background(), in, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gtp-ls", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := GTPWithLocalSearch(context.Background(), in, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}
