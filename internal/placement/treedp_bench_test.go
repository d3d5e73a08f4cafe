package placement_test

import (
	"context"
	"testing"

	"tdmd/internal/experiments"
	"tdmd/internal/placement"
)

// BenchmarkTreeDP solves online-cold's default tree cell: a 22-vertex
// tree at density 0.5 and λ = 0.5 with budget 8, the shape of the Figs.
// 9-16 sweeps. Only the solve is timed.
func BenchmarkTreeDP(b *testing.B) {
	tr := experiments.TreeTrial(22, 0.5, 0.5, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.TreeDP(context.Background(), tr.Inst, tr.Tree, tr.K); err != nil {
			b.Fatal(err)
		}
	}
}
