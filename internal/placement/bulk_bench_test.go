package placement

import (
	"context"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// BenchmarkGTPLazyBulkShape solves the bulk-ingest job's shape scaled
// down tenfold: 20k shortest-path flows from random sources to three
// hubs on a |V|=200 random topology, so each distinct path carries
// ~33 flows, as in the 200k-flow job. Only the solve is timed.
func BenchmarkGTPLazyBulkShape(b *testing.B) {
	g := topology.GeneralRandom(200, 0.5, 1)
	fl := traffic.GeneralFlows(g, []graph.NodeID{0, 1, 2}, traffic.GenConfig{
		Density: 1e9, Seed: 1, MaxFlows: 20_000})
	if len(fl) != 20_000 {
		b.Fatalf("workload generation produced %d flows, want 20000", len(fl))
	}
	in := netsim.MustNew(g, fl, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GTPLazy(context.Background(), in)
	}
}
