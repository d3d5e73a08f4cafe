// Benchmarks, one per evaluation figure of the paper (Figs. 9-17).
// Each benchmark reproduces a figure's sweep as sub-benchmarks: the
// instance generation happens outside the timed region, so b.N
// iterations measure exactly what the paper's execution-time
// sub-figures measure — the placement algorithms themselves.
//
// The figure *data* (bandwidth series with error bars) is regenerated
// by cmd/figures; run `go test -bench=. -benchmem` for the timing
// side and `go run ./cmd/figures` for the bandwidth side.
package tdmd_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tdmd/internal/experiments"
	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/placement"
	"tdmd/internal/stats"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// benchAlgs runs every algorithm of the series on the trial as
// sub-benchmarks.
func benchAlgs(b *testing.B, trial experiments.Trial, algs []experiments.AlgName) {
	for _, alg := range algs {
		b.Run(string(alg), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				var err error
				switch alg {
				case experiments.Random:
					_, err = placement.RandomPlacement(context.Background(), trial.Inst, trial.K, rng)
				case experiments.BestEffort:
					_, err = placement.BestEffort(context.Background(), trial.Inst, trial.K)
				case experiments.GTP:
					_, err = placement.GTPBudget(context.Background(), trial.Inst, trial.K)
				case experiments.HAT:
					_, err = placement.HAT(context.Background(), trial.Inst, trial.Tree, trial.K)
				case experiments.DP:
					_, err = placement.TreeDP(context.Background(), trial.Inst, trial.Tree, trial.K)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func treeTrialForBench(b *testing.B, size int, density, lambda float64, k int, point uint64) experiments.Trial {
	seed := stats.DeriveSeed(2026, point)
	trial := experiments.TreeTrial(size, density, lambda, k, seed)
	if _, err := placement.GTPBudget(context.Background(), trial.Inst, trial.K); err != nil {
		b.Skipf("generated workload infeasible at k=%d", k)
	}
	return trial
}

// BenchmarkFig09_TreeK — Fig. 9: sweep the middlebox budget k in the
// 22-vertex tree.
func BenchmarkFig09_TreeK(b *testing.B) {
	for _, k := range []int{1, 4, 7, 10, 13, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			trial := treeTrialForBench(b, experiments.DefaultTreeSize, experiments.DefaultDensity,
				experiments.DefaultLambda, k, uint64(k))
			benchAlgs(b, trial, experiments.TreeAlgs)
		})
	}
}

// BenchmarkFig10_TreeLambda — Fig. 10: sweep the traffic-changing
// ratio in the tree.
func BenchmarkFig10_TreeLambda(b *testing.B) {
	for _, lambda := range []float64{0, 0.3, 0.6, 0.9} {
		b.Run(fmt.Sprintf("lambda=%g", lambda), func(b *testing.B) {
			trial := treeTrialForBench(b, experiments.DefaultTreeSize, experiments.DefaultDensity,
				lambda, experiments.DefaultTreeK, uint64(lambda*10))
			benchAlgs(b, trial, experiments.TreeAlgs)
		})
	}
}

// BenchmarkFig11_TreeDensity — Fig. 11: sweep the flow density in the
// tree.
func BenchmarkFig11_TreeDensity(b *testing.B) {
	for _, density := range []float64{0.3, 0.5, 0.8} {
		b.Run(fmt.Sprintf("density=%g", density), func(b *testing.B) {
			trial := treeTrialForBench(b, experiments.DefaultTreeSize, density,
				experiments.DefaultLambda, experiments.DefaultTreeK, uint64(density*10))
			benchAlgs(b, trial, experiments.TreeAlgs)
		})
	}
}

// BenchmarkFig12_TreeSize — Fig. 12: sweep the tree topology size.
func BenchmarkFig12_TreeSize(b *testing.B) {
	for _, size := range []int{12, 22, 32} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			trial := treeTrialForBench(b, size, experiments.DefaultDensity,
				experiments.DefaultLambda, experiments.DefaultTreeK, uint64(size))
			benchAlgs(b, trial, experiments.TreeAlgs)
		})
	}
}

func generalTrialForBench(b *testing.B, size int, density, lambda float64, k int, point uint64) experiments.Trial {
	seed := stats.DeriveSeed(2027, point)
	trial := experiments.GeneralTrial(size, density, lambda, k, seed)
	if _, err := placement.GTPBudget(context.Background(), trial.Inst, trial.K); err != nil {
		b.Skipf("generated workload infeasible at k=%d", k)
	}
	return trial
}

// BenchmarkFig13_GeneralK — Fig. 13: sweep k in the 30-vertex general
// topology.
func BenchmarkFig13_GeneralK(b *testing.B) {
	for _, k := range []int{12, 16, 20, 22} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			trial := generalTrialForBench(b, experiments.DefaultGeneralSize, experiments.DefaultDensity,
				experiments.DefaultLambda, k, uint64(k))
			benchAlgs(b, trial, experiments.GeneralAlgs)
		})
	}
}

// BenchmarkFig14_GeneralLambda — Fig. 14: sweep λ in the general
// topology.
func BenchmarkFig14_GeneralLambda(b *testing.B) {
	for _, lambda := range []float64{0, 0.3, 0.6, 0.9} {
		b.Run(fmt.Sprintf("lambda=%g", lambda), func(b *testing.B) {
			trial := generalTrialForBench(b, experiments.DefaultGeneralSize, experiments.DefaultDensity,
				lambda, experiments.DefaultGeneralK, uint64(lambda*10))
			benchAlgs(b, trial, experiments.GeneralAlgs)
		})
	}
}

// BenchmarkFig15_GeneralDensity — Fig. 15: sweep flow density in the
// general topology.
func BenchmarkFig15_GeneralDensity(b *testing.B) {
	for _, density := range []float64{0.3, 0.5, 0.8} {
		b.Run(fmt.Sprintf("density=%g", density), func(b *testing.B) {
			trial := generalTrialForBench(b, experiments.DefaultGeneralSize, density,
				experiments.DefaultLambda, experiments.DefaultGeneralK, uint64(density*10))
			benchAlgs(b, trial, experiments.GeneralAlgs)
		})
	}
}

// BenchmarkFig16_GeneralSize — Fig. 16: sweep the general topology
// size.
func BenchmarkFig16_GeneralSize(b *testing.B) {
	for _, size := range []int{12, 28, 52} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			trial := generalTrialForBench(b, size, experiments.DefaultDensity,
				experiments.DefaultLambda, experiments.DefaultGeneralK, uint64(size))
			benchAlgs(b, trial, experiments.GeneralAlgs)
		})
	}
}

// BenchmarkFig17_SpamTree — Fig. 17(a): spam filters (λ=0) on the
// tree, GTP over the (k, density) grid corners.
func BenchmarkFig17_SpamTree(b *testing.B) {
	for _, kd := range [][2]float64{{5, 0.4}, {5, 0.8}, {15, 0.4}, {15, 0.8}} {
		b.Run(fmt.Sprintf("k=%d,density=%g", int(kd[0]), kd[1]), func(b *testing.B) {
			trial := treeTrialForBench(b, experiments.DefaultTreeSize, kd[1], 0, int(kd[0]),
				uint64(kd[0]*100+kd[1]*10))
			benchAlgs(b, trial, []experiments.AlgName{experiments.GTP})
		})
	}
}

// BenchmarkFig17_SpamGeneral — Fig. 17(b): spam filters on the general
// topology.
func BenchmarkFig17_SpamGeneral(b *testing.B) {
	for _, kd := range [][2]float64{{6, 0.4}, {6, 0.8}, {16, 0.4}, {16, 0.8}} {
		b.Run(fmt.Sprintf("k=%d,density=%g", int(kd[0]), kd[1]), func(b *testing.B) {
			trial := generalTrialForBench(b, experiments.DefaultGeneralSize, kd[1], 0, int(kd[0]),
				uint64(kd[0]*100+kd[1]*10))
			benchAlgs(b, trial, []experiments.AlgName{experiments.GTP})
		})
	}
}

// --- Paired full-vs-incremental benchmarks -------------------------
//
// The placement algorithms run on netsim.State, the incremental
// allocation engine. These pairs measure what that buys at a scale
// where the difference matters (|V|=200, |F|≥1000): the "full"
// variants replicate, with the model primitives, the re-allocate-
// every-round pattern the solvers used before the refactor, and the
// "incremental" variants are the shipping implementations. Both sides
// report allocations/op measured over the whole solve via
// runtime.MemStats. Results are recorded in EXPERIMENTS.md
// ("Incremental evaluation"); `make bench` runs exactly this pairing.

// incrBenchInstance builds a large workload: 200 vertices, ≥1000
// flows, λ=0.5. More sources spread the flows, forcing more greedy
// rounds (the GTP pair uses 40 sources → ~145 deployments; the local
// search pair uses 3 → a plan small enough that the full-recompute
// swap pass stays affordable).
func incrBenchInstance(b *testing.B, sources int) *netsim.Instance {
	b.Helper()
	g := topology.GeneralRandom(200, 0.8, 7)
	srcs := make([]graph.NodeID, sources)
	for i := range srcs {
		srcs[i] = graph.NodeID(i)
	}
	fl := traffic.GeneralFlows(g, srcs, traffic.GenConfig{
		Density: 2.0, Seed: 9, MaxFlows: 1500})
	if len(fl) < 1000 {
		b.Fatalf("workload generation produced only %d flows, need >= 1000", len(fl))
	}
	return netsim.MustNew(g, fl, 0.5)
}

// reportAllocsPerOp wraps the timed loop with MemStats reads and
// reports the allocation count per iteration.
func reportAllocsPerOp(b *testing.B, loop func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	loop()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/op")
}

// allocFeasible mirrors the pre-refactor feasibility check on an
// existing allocation.
func allocFeasible(alloc netsim.Allocation) bool {
	for _, v := range alloc {
		if v == netsim.Unserved {
			return false
		}
	}
	return true
}

// gtpFullRecompute is GTP's pre-refactor inner loop, replicated
// faithfully: every round pays a full Allocate, then scores each
// candidate with MarginalDecrement against that fresh allocation.
// Tie-breaking matches the shipping GTPLazy (coverage, then
// vertex ID), so both variants pick the same plan.
func gtpFullRecompute(in *netsim.Instance) netsim.Plan {
	p := netsim.NewPlan()
	alloc := in.Allocate(p)
	for !allocFeasible(alloc) {
		best := graph.Invalid
		bestGain := math.Inf(-1)
		bestCovered := -1
		for _, v := range in.G.Nodes() {
			if p.Has(v) {
				continue
			}
			gain := in.MarginalDecrement(p, alloc, v)
			covered := 0
			for _, fa := range in.Through(v) {
				if c := int(fa.Class); alloc[in.ClassFlow(c)] == netsim.Unserved {
					covered += in.ClassSize(c)
				}
			}
			switch {
			case gain > bestGain:
				best, bestGain, bestCovered = v, gain, covered
			case gain < bestGain:
			case covered > bestCovered || (covered == bestCovered && v < best):
				best, bestGain, bestCovered = v, gain, covered
			}
		}
		if best == graph.Invalid || (bestGain <= 0 && bestCovered == 0) {
			break
		}
		p.Add(best)
		alloc = in.Allocate(p)
	}
	return p
}

// localSearchFullRound is one 1-swap pass in the pre-refactor style:
// every probe mutates a plan copy and re-runs the full Feasible +
// TotalBandwidth evaluation.
func localSearchFullRound(in *netsim.Instance, seed netsim.Plan) netsim.Plan {
	p := seed.Clone()
	n := in.G.NumNodes()
	for _, out := range p.Vertices() {
		bestBW := in.TotalBandwidth(p)
		bestIn := graph.Invalid
		p.Remove(out)
		for v := graph.NodeID(0); int(v) < n; v++ {
			if v == out || p.Has(v) {
				continue
			}
			p.Add(v)
			if in.Feasible(p) {
				if bw := in.TotalBandwidth(p); bw < bestBW-1e-12 {
					bestBW, bestIn = bw, v
				}
			}
			p.Remove(v)
		}
		if bestIn != graph.Invalid {
			p.Add(bestIn)
		} else {
			p.Add(out)
		}
	}
	return p
}

func BenchmarkFullVsIncrementalGTP(b *testing.B) {
	in := incrBenchInstance(b, 40)
	b.Run("full", func(b *testing.B) {
		reportAllocsPerOp(b, func() {
			for i := 0; i < b.N; i++ {
				if p := gtpFullRecompute(in); p.Size() == 0 {
					b.Fatal("full-recompute GTP produced an empty plan")
				}
			}
		})
	})
	b.Run("incremental", func(b *testing.B) {
		reportAllocsPerOp(b, func() {
			for i := 0; i < b.N; i++ {
				if r := placement.GTPLazy(context.Background(), in); !r.Feasible {
					b.Fatal("GTP produced an infeasible plan")
				}
			}
		})
	})
}

func BenchmarkFullVsIncrementalLocalSearch(b *testing.B) {
	in := incrBenchInstance(b, 3)
	seed := placement.GTPLazy(context.Background(), in)
	if !seed.Feasible {
		b.Fatal("greedy seed infeasible")
	}
	b.Run("full", func(b *testing.B) {
		reportAllocsPerOp(b, func() {
			for i := 0; i < b.N; i++ {
				localSearchFullRound(in, seed.Plan)
			}
		})
	})
	b.Run("incremental", func(b *testing.B) {
		reportAllocsPerOp(b, func() {
			for i := 0; i < b.N; i++ {
				placement.LocalSearch(context.Background(), in, seed.Plan, 1)
			}
		})
	})
}

// BenchmarkTable2_MarginalDecrement measures the oracle the GTP
// complexity analysis counts (Sec. 4.2's O(|V|² log |V|) oracle
// queries): one marginal-decrement evaluation on the default tree
// instance.
func BenchmarkTable2_MarginalDecrement(b *testing.B) {
	trial := treeTrialForBench(b, experiments.DefaultTreeSize, experiments.DefaultDensity,
		experiments.DefaultLambda, experiments.DefaultTreeK, 99)
	p := netsim.NewPlan(trial.Tree.Root)
	alloc := trial.Inst.Allocate(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := trial.Inst.G.Nodes()[i%trial.Inst.G.NumNodes()]
		trial.Inst.MarginalDecrement(p, alloc, v)
	}
}
