package netsim

import (
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// BenchmarkNewInstance measures instance construction — path storage,
// path-class interning and the through index — at the snapshot
// workload (|V|=200, |F|≈1500). The custom bytes/flow metric tracks
// the per-flow memory cost of the indexed representation; B/op and
// allocs/op feed BENCH_solver.json via cmd/benchsnap.
func BenchmarkNewInstance(b *testing.B) {
	g := topology.GeneralRandom(200, 0.8, 7)
	srcs := make([]graph.NodeID, 40)
	for i := range srcs {
		srcs[i] = graph.NodeID(i)
	}
	fl := traffic.GeneralFlows(g, srcs, traffic.GenConfig{
		Density: 2.0, Seed: 9, MaxFlows: 1500})
	if len(fl) < 1000 {
		b.Fatalf("workload generation produced only %d flows, need >= 1000", len(fl))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var in *Instance
	for i := 0; i < b.N; i++ {
		var err error
		in, err = New(g, fl, 0.5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, arena := in.MemoryFootprint()
	b.ReportMetric(float64(arena)/float64(len(fl)), "bytes/flow")
}
