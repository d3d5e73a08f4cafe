package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"tdmd/internal/placement"
	"tdmd/internal/stats"
	"tdmd/internal/viz"
)

// The optimality-gap experiment ("Fig. 21"): the paper can only
// compare its general-topology heuristics against each other, because
// the problem is NP-hard and MATLAB brute force stops at toy sizes.
// Our branch-and-bound with the submodular pruning bound certifies
// true optima at the evaluation's default scale, so the heuristics'
// absolute quality becomes measurable.

// GapReport aggregates heuristic-vs-optimum gaps over repetitions.
type GapReport struct {
	ID        string
	Title     string
	Instances int // certified instances (timeouts excluded)
	Skipped   int // instances whose exact search timed out
	// Gap[alg] collects (heuristic − optimum) / optimum per instance.
	Gap map[AlgName]*stats.Sample
	// Optimal[alg] counts instances where the heuristic hit the
	// optimum exactly.
	Optimal map[AlgName]int
}

// OptimalityGap measures GTP, GTP+LS, and Best-effort against
// certified optima on the default general topology.
func OptimalityGap(ctx context.Context, cfg Config) (*GapReport, error) {
	cfg = cfg.WithDefaults()
	algs := []AlgName{BestEffort, GTP, GTPLS}
	rep := &GapReport{
		ID:      "fig21",
		Title:   "Extension: heuristic optimality gaps (general topology, certified optima)",
		Gap:     map[AlgName]*stats.Sample{},
		Optimal: map[AlgName]int{},
	}
	for _, a := range algs {
		rep.Gap[a] = &stats.Sample{}
	}
	for repIdx := 0; repIdx < cfg.Reps; repIdx++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := stats.DeriveSeed(cfg.Seed, 21, uint64(repIdx))
		trial := GeneralTrial(DefaultGeneralSize, DefaultDensity, DefaultLambda, DefaultGeneralK, seed)
		opt, err := certifiedOptimum(ctx, trial)
		if err != nil || !opt.Optimal {
			rep.Skipped++
			continue
		}
		rep.Instances++
		for _, a := range algs {
			name, opts, serr := seriesSolver(a, trial, 0)
			if serr != nil {
				return nil, serr
			}
			r, aerr := placement.Solve(ctx, name, trial.Inst, opts)
			if aerr != nil || r.Interrupted != nil {
				continue
			}
			gap := (r.Bandwidth - opt.Bandwidth) / opt.Bandwidth
			rep.Gap[a].Add(gap)
			if gap < 1e-9 {
				rep.Optimal[a]++
			}
		}
	}
	return rep, nil
}

// certifiedOptimum runs branch-and-bound on one trial for at most 20 s;
// a search cut by that deadline returns with Optimal=false.
func certifiedOptimum(ctx context.Context, trial Trial) (placement.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	return placement.BranchAndBound(ctx, trial.Inst, trial.K)
}

// WriteTable renders the report.
func (r *GapReport) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(w, "certified instances: %d (skipped %d on exact-search timeout)\n", r.Instances, r.Skipped)
	fmt.Fprintf(w, "%-14s %14s %14s %14s\n", "algorithm", "mean gap", "max gap", "hit optimum")
	for _, a := range []AlgName{BestEffort, GTP, GTPLS} {
		s := r.Gap[a]
		if s.N() == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s %13.2f%% %13.2f%% %10d/%d\n",
			a, 100*s.Mean(), 100*s.Max(), r.Optimal[a], s.N())
	}
	fmt.Fprintln(w)
}

// WriteTSV emits the machine-readable form.
func (r *GapReport) WriteTSV(w io.Writer) error {
	fmt.Fprintf(w, "# %s: %s\n", r.ID, r.Title)
	fmt.Fprintln(w, "algorithm\tmean_gap\tmax_gap\toptimal_hits\tinstances")
	for _, a := range []AlgName{BestEffort, GTP, GTPLS} {
		s := r.Gap[a]
		if s.N() == 0 {
			continue
		}
		fmt.Fprintf(w, "%s\t%.6g\t%.6g\t%d\t%d\n", a, s.Mean(), s.Max(), r.Optimal[a], s.N())
	}
	return nil
}

// SVG renders the gap report as a bar chart (mean gap per algorithm
// with stderr whiskers, in percent).
func (r *GapReport) SVG() string {
	bc := viz.BarChart{
		Title:  r.Title,
		YLabel: "optimality gap (%)",
	}
	for _, a := range []AlgName{BestEffort, GTP, GTPLS} {
		s := r.Gap[a]
		if s.N() == 0 {
			continue
		}
		bc.Labels = append(bc.Labels, string(a))
		bc.Values = append(bc.Values, 100*s.Mean())
		bc.Errs = append(bc.Errs, 100*s.StdErr())
	}
	return bc.SVG()
}
