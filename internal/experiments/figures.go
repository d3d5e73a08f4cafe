package experiments

import (
	"context"
	"fmt"
)

// Fig9 — bandwidth consumption and execution time versus the middlebox
// number constraint k (1..16 step 3) in the tree topology.
func Fig9(ctx context.Context, cfg Config) (*Figure, error) {
	return sweep(ctx, cfg, 9, "fig09", "Middlebox number constraint k in tree", "k",
		TreeAlgs, seq(1, 16, 3),
		func(x float64, seed int64) (Trial, error) {
			return TreeTrial(DefaultTreeSize, DefaultDensity, DefaultLambda, int(x), seed), nil
		})
}

// Fig10 — versus the traffic-changing ratio λ (0..0.9 step 0.1) in the
// tree topology.
func Fig10(ctx context.Context, cfg Config) (*Figure, error) {
	return sweep(ctx, cfg, 10, "fig10", "Traffic-changing ratio in tree", "lambda",
		TreeAlgs, seqF(0, 0.9, 0.1),
		func(x float64, seed int64) (Trial, error) {
			return TreeTrial(DefaultTreeSize, DefaultDensity, x, DefaultTreeK, seed), nil
		})
}

// Fig11 — versus flow density (0.3..0.8 step 0.1) in the tree topology.
func Fig11(ctx context.Context, cfg Config) (*Figure, error) {
	return sweep(ctx, cfg, 11, "fig11", "Flow density in tree", "density",
		TreeAlgs, seqF(0.3, 0.8, 0.1),
		func(x float64, seed int64) (Trial, error) {
			return TreeTrial(DefaultTreeSize, x, DefaultLambda, DefaultTreeK, seed), nil
		})
}

// Fig12 — versus topology size (12..32 step 4) in the tree topology.
func Fig12(ctx context.Context, cfg Config) (*Figure, error) {
	return sweep(ctx, cfg, 12, "fig12", "Topology size in tree", "size",
		TreeAlgs, seq(12, 32, 4),
		func(x float64, seed int64) (Trial, error) {
			return TreeTrial(int(x), DefaultDensity, DefaultLambda, DefaultTreeK, seed), nil
		})
}

// Fig13 — versus the middlebox number k (12..22 step 2) in the general
// topology.
func Fig13(ctx context.Context, cfg Config) (*Figure, error) {
	return sweep(ctx, cfg, 13, "fig13", "Middlebox number k in a general topology", "k",
		GeneralAlgs, seq(12, 22, 2),
		func(x float64, seed int64) (Trial, error) {
			return GeneralTrial(DefaultGeneralSize, DefaultDensity, DefaultLambda, int(x), seed), nil
		})
}

// Fig14 — versus λ (0..0.9 step 0.1) in the general topology.
func Fig14(ctx context.Context, cfg Config) (*Figure, error) {
	return sweep(ctx, cfg, 14, "fig14", "Traffic-changing ratio in a general topology", "lambda",
		GeneralAlgs, seqF(0, 0.9, 0.1),
		func(x float64, seed int64) (Trial, error) {
			return GeneralTrial(DefaultGeneralSize, DefaultDensity, x, DefaultGeneralK, seed), nil
		})
}

// Fig15 — versus flow density (0.3..0.8 step 0.1) in the general
// topology.
func Fig15(ctx context.Context, cfg Config) (*Figure, error) {
	return sweep(ctx, cfg, 15, "fig15", "Flow density in a general topology", "density",
		GeneralAlgs, seqF(0.3, 0.8, 0.1),
		func(x float64, seed int64) (Trial, error) {
			return GeneralTrial(DefaultGeneralSize, x, DefaultLambda, DefaultGeneralK, seed), nil
		})
}

// Fig16 — versus topology size (12..52 step 8) in the general
// topology.
func Fig16(ctx context.Context, cfg Config) (*Figure, error) {
	return sweep(ctx, cfg, 16, "fig16", "Topology size in a general topology", "size",
		GeneralAlgs, seq(12, 52, 8),
		func(x float64, seed int64) (Trial, error) {
			return GeneralTrial(int(x), DefaultDensity, DefaultLambda, DefaultGeneralK, seed), nil
		})
}

// GridPoint is one cell of a Fig. 17 surface.
type GridPoint struct {
	K         int
	Density   float64
	Bandwidth float64 // mean over repetitions
	StdErr    float64
}

// Surface is a Fig. 17-style 3-D result: GTP bandwidth over a
// (k, density) grid with spam filters (λ = 0).
type Surface struct {
	ID    string
	Title string
	Cells []GridPoint
}

// Fig17Tree — spam filters (λ=0): GTP bandwidth over the (k, density)
// grid in the tree topology (paper Fig. 17(a): k up to ~15, density
// 0.4..0.8).
func Fig17Tree(ctx context.Context, cfg Config) (*Surface, error) {
	return grid(ctx, cfg, 170, "fig17a", "Spam filters in tree", seq(5, 15, 2), seqF(0.4, 0.8, 0.1),
		func(k int, density float64, seed int64) (Trial, error) {
			return TreeTrial(DefaultTreeSize, density, 0, k, seed), nil
		})
}

// Fig17General — spam filters over the (k, density) grid in the
// general topology (paper Fig. 17(b): k 6..16, density 0.4..0.8).
func Fig17General(ctx context.Context, cfg Config) (*Surface, error) {
	return grid(ctx, cfg, 171, "fig17b", "Spam filters in a general topology", seq(6, 16, 2), seqF(0.4, 0.8, 0.1),
		func(k int, density float64, seed int64) (Trial, error) {
			return GeneralTrial(DefaultGeneralSize, density, 0, k, seed), nil
		})
}

// grid runs GTP over a (k, density) grid.
func grid(ctx context.Context, cfg Config, figIdx uint64, id, title string, ks, densities []float64,
	gen func(k int, density float64, seed int64) (Trial, error)) (*Surface, error) {
	surf := &Surface{ID: id, Title: title}
	for _, kf := range ks {
		for di, d := range densities {
			// Reuse the 1-D sweep machinery point-wise: one "figure"
			// per k with density as x would re-spin workers, so run the
			// grid through sweep with a composite index instead.
			fig, err := sweep(ctx, cfg, figIdx*1000+uint64(kf)*10+uint64(di), fmt.Sprintf("%s-k%d", id, int(kf)),
				title, "density", []AlgName{GTP}, []float64{d},
				func(x float64, seed int64) (Trial, error) {
					return gen(int(kf), x, seed)
				})
			if err != nil {
				return nil, err
			}
			s := fig.Points[0].Bandwidth[GTP]
			surf.Cells = append(surf.Cells, GridPoint{
				K: int(kf), Density: d, Bandwidth: s.Mean(), StdErr: s.StdErr(),
			})
		}
	}
	return surf, nil
}

// seq returns {lo, lo+step, ..., <=hi} as float64s.
func seq(lo, hi, step int) []float64 {
	var xs []float64
	for x := lo; x <= hi; x += step {
		xs = append(xs, float64(x))
	}
	return xs
}

// seqF is seq for floating-point sweeps, robust to accumulation error.
func seqF(lo, hi, step float64) []float64 {
	var xs []float64
	for i := 0; ; i++ {
		x := lo + float64(i)*step
		if x > hi+step/2 {
			break
		}
		// Round to the step's precision for clean labels.
		xs = append(xs, float64(int(x*100+0.5))/100)
	}
	return xs
}

// Fig18 is an extension beyond the paper: the Fig. 9 sweep with the
// local-search refinement (GTP+LS) added, quantifying how much of the
// greedy/optimal gap a swap pass recovers on trees.
func Fig18(ctx context.Context, cfg Config) (*Figure, error) {
	return sweep(ctx, cfg, 18, "fig18", "Extension: local-search refinement in tree", "k",
		[]AlgName{GTP, GTPLS, HAT, DP}, seq(1, 16, 3),
		func(x float64, seed int64) (Trial, error) {
			return TreeTrial(DefaultTreeSize, DefaultDensity, DefaultLambda, int(x), seed), nil
		})
}

// Fig19 is a second extension beyond the paper: middlebox placement on
// fat-tree data-center fabrics (Sec. 5 names fat-tree as a target
// tree-like topology but the paper never evaluates one). Flows run
// from every edge switch to a gateway core over the BFS spanning
// tree; the sweep grows the fabric arity.
func Fig19(ctx context.Context, cfg Config) (*Figure, error) {
	return sweep(ctx, cfg, 19, "fig19", "Extension: fat-tree fabric arity", "arity",
		TreeAlgs, []float64{4, 6, 8},
		func(x float64, seed int64) (Trial, error) {
			return FatTreeTrial(int(x), DefaultDensity, DefaultLambda, DefaultTreeK, seed), nil
		})
}

// Fig20 is a third extension: the price of per-middlebox processing
// capacity. At the default tree budget, the capacitated greedy runs
// with capacity expressed as a multiple of the average per-box load
// (total rate / k); a multiple near 1 forces near-perfect balance,
// and 0 encodes the paper's unlimited-capacity assumption.
func Fig20(ctx context.Context, cfg Config) (*Figure, error) {
	multiples := []float64{1.2, 1.5, 2, 4, 0} // 0 encodes "unlimited"
	// k = 4 (not the tree default 8) so boxes genuinely share flows and
	// the capacity constraint has something to bind against.
	const kTight = 4
	return sweep(ctx, cfg, 20, "fig20", "Extension: per-middlebox capacity (×avg load, 0 = unlimited)", "capacity_multiple",
		[]AlgName{Capacitated}, multiples,
		func(x float64, seed int64) (Trial, error) {
			t := TreeTrial(DefaultTreeSize, DefaultDensity, DefaultLambda, kTight, seed)
			t.CapacityMultiple = x
			return t, nil
		})
}
