// Package experiments defines one reproducible experiment per figure
// of the paper's evaluation (Figs. 9-17): parameter sweeps that run
// the placement algorithms over generated topologies and workloads,
// aggregate bandwidth consumption and execution time over repetitions
// (the paper's error bars), and render the series.
//
// Topologies are reduced from the synthetic Ark-like infrastructure
// exactly as the paper reduces its tree and general topologies from
// the CAIDA Ark graph; see DESIGN.md for the substitution rationale.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/placement"
	"tdmd/internal/stats"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// AlgName identifies an algorithm series in a figure.
type AlgName string

// The series names used across the evaluation, matching the paper's
// legends.
const (
	Random     AlgName = "Random"
	BestEffort AlgName = "Best-effort"
	GTP        AlgName = "GTP"
	HAT        AlgName = "HAT"
	DP         AlgName = "DP"
	// GTPLS is not in the paper: GTP refined by 1-swap local search,
	// used by the extension figure (Fig. 18 in EXPERIMENTS.md).
	GTPLS AlgName = "GTP+LS"
	// Capacitated is the per-box-capacity greedy of the Fig. 20
	// extension; the trial's CapacityMultiple scales the limit.
	Capacitated AlgName = "Capacitated"
)

// Defaults of Sec. 6.2.
const (
	DefaultTreeK       = 8
	DefaultGeneralK    = 10
	DefaultLambda      = 0.5
	DefaultDensity     = 0.5
	DefaultTreeSize    = 22
	DefaultGeneralSize = 30
	// DefaultLinkCapacity scales the absolute workload. The paper's
	// absolute bandwidth (~1e5) reflects the CAIDA trace; ours only
	// needs to preserve relative shape while keeping the DP's
	// pseudo-polynomial cost testable.
	DefaultLinkCapacity = 40.0
)

// Config controls a sweep run.
type Config struct {
	Seed    int64 // master seed; every point/rep derives its own stream
	Reps    int   // repetitions per sweep point (error bars)
	Workers int   // parallel workers; <= 0 means GOMAXPROCS
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Obs is one repetition's measurement for one algorithm.
type Obs struct {
	Bandwidth float64
	Exec      time.Duration
	OK        bool
}

// Point aggregates all repetitions at one sweep value.
type Point struct {
	X         float64
	Bandwidth map[AlgName]*stats.Sample
	ExecSec   map[AlgName]*stats.Sample
}

func newPoint(x float64, algs []AlgName) *Point {
	p := &Point{X: x, Bandwidth: map[AlgName]*stats.Sample{}, ExecSec: map[AlgName]*stats.Sample{}}
	for _, a := range algs {
		p.Bandwidth[a] = &stats.Sample{}
		p.ExecSec[a] = &stats.Sample{}
	}
	return p
}

// Figure is one fully-run experiment.
type Figure struct {
	ID     string // e.g. "fig09"
	Title  string
	XLabel string
	Algs   []AlgName
	Points []*Point
}

// Trial is one generated problem instance plus the budget to use.
type Trial struct {
	Inst *netsim.Instance
	Tree *graph.Tree // nil for general topologies
	K    int
	// CapacityMultiple scales the per-box capacity for the Capacitated
	// series: capacity = ceil(multiple × max flow rate); 0 = unlimited.
	CapacityMultiple float64
}

// sweep runs gen for every (x, rep) pair in parallel and aggregates.
// gen must be deterministic in the seed it is handed. Cancelling ctx
// stops the sweep at the next job boundary and returns the context
// error; partial aggregates are discarded by the callers.
func sweep(ctx context.Context, cfg Config, figIdx uint64, id, title, xlabel string, algs []AlgName, xs []float64,
	gen func(x float64, seed int64) (Trial, error)) (*Figure, error) {
	cfg = cfg.WithDefaults()
	fig := &Figure{ID: id, Title: title, XLabel: xlabel, Algs: algs}
	for _, x := range xs {
		fig.Points = append(fig.Points, newPoint(x, algs))
	}
	type job struct{ pi, rep int }
	jobs := make(chan job)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				x := xs[j.pi]
				res, err := runOne(ctx, cfg, figIdx, uint64(j.pi), uint64(j.rep), x, algs, gen)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s x=%v rep=%d: %w", id, x, j.rep, err)
				}
				for a, o := range res {
					if o.OK {
						fig.Points[j.pi].Bandwidth[a].Add(o.Bandwidth)
						fig.Points[j.pi].ExecSec[a].Add(o.Exec.Seconds())
					}
				}
				mu.Unlock()
			}
		}()
	}
	for pi := range xs {
		for rep := 0; rep < cfg.Reps; rep++ {
			jobs <- job{pi, rep}
		}
	}
	close(jobs)
	wg.Wait()
	return fig, firstErr
}

// seriesSolver maps a figure series to its registry solver name and
// the options the series runs with. seed feeds randomized series only.
func seriesSolver(a AlgName, trial Trial, seed int64) (string, placement.Options, error) {
	// Every sweep solve reports to the process metrics, so a -stats run
	// ends with per-algorithm latency and outcome counters for free.
	opts := placement.Options{K: trial.K, Observer: placement.Metrics()}
	var name string
	switch a {
	case Random:
		name = "random"
		opts.Seed = &seed
	case BestEffort:
		name = "best-effort"
	case GTP:
		name = "gtp"
	case HAT:
		name = "hat"
		opts.Tree = trial.Tree
	case DP:
		name = "dp"
		opts.Tree = trial.Tree
	case GTPLS:
		name = "gtp-ls"
	case Capacitated:
		name = "capacitated"
		if trial.CapacityMultiple > 0 {
			avg := float64(traffic.TotalRate(trial.Inst.Flows())) / float64(trial.K)
			opts.Capacity = int(trial.CapacityMultiple*avg + 0.999)
			if m := traffic.MaxRate(trial.Inst.Flows()); opts.Capacity < m {
				opts.Capacity = m // a box must at least fit the largest flow
			}
		}
	default:
		return "", placement.Options{}, fmt.Errorf("unknown algorithm %q", a)
	}
	return name, opts, nil
}

// runOne generates one instance (regenerating on infeasibility, as the
// paper does) and times every algorithm on it through the solver
// registry — the same dispatch path the facade and binaries use.
func runOne(ctx context.Context, cfg Config, figIdx, pi, rep uint64, x float64, algs []AlgName,
	gen func(x float64, seed int64) (Trial, error)) (map[AlgName]Obs, error) {
	const regenAttempts = 8
	var trial Trial
	var err error
	var attempt uint64
	for attempt = 0; attempt < regenAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := stats.DeriveSeed(cfg.Seed, figIdx, pi, rep, attempt)
		trial, err = gen(x, seed)
		if err != nil {
			return nil, err
		}
		// The instance must admit at least the GTP solution within k;
		// otherwise regenerate traffic (paper protocol).
		if _, gerr := placement.GTPBudget(ctx, trial.Inst, trial.K); gerr == nil {
			break
		}
	}
	if attempt == regenAttempts {
		return nil, fmt.Errorf("no feasible workload after %d regenerations", regenAttempts)
	}
	out := make(map[AlgName]Obs, len(algs))
	algSeed := stats.DeriveSeed(cfg.Seed, figIdx, pi, rep, 1000)
	for _, a := range algs {
		name, opts, serr := seriesSolver(a, trial, algSeed)
		if serr != nil {
			return nil, serr
		}
		start := time.Now()
		r, aerr := placement.Solve(ctx, name, trial.Inst, opts)
		// Interrupted solves never count as observations: a sweep point
		// must aggregate full runs only.
		ok := aerr == nil && r.Feasible && r.Interrupted == nil
		out[a] = Obs{Bandwidth: r.Bandwidth, Exec: time.Since(start), OK: ok}
	}
	return out, nil
}

// TreeAlgs is the tree-figure series set; GeneralAlgs the general one.
var (
	TreeAlgs    = []AlgName{Random, BestEffort, GTP, HAT, DP}
	GeneralAlgs = []AlgName{Random, BestEffort, GTP}
)

// treeTopo reduces a tree of exactly size vertices from the Ark-like
// infrastructure: BFS spanning tree, then random leaf insertion or
// deletion, mirroring the paper's "reduced from Fig. 8(a)" plus its
// insert/delete size mutation.
func treeTopo(size int, seed int64) (*graph.Graph, *graph.Tree) {
	ark := topology.ArkLike(topology.DefaultArkConfig(seed))
	st := topology.SpanningTree(ark, 0)
	topology.ResizeTree(st, size, seed+1)
	t, err := graph.NewTree(st, 0)
	if err != nil {
		panic("experiments: spanning tree reduction failed: " + err.Error())
	}
	return st, t
}

// generalTopo reduces a connected general graph of exactly size
// vertices from the Ark-like infrastructure.
func generalTopo(size int, seed int64) *graph.Graph {
	cfg := topology.DefaultArkConfig(seed)
	cfg.Clusters = 6
	cfg.MonitorsPerHub = 4
	cfg.BackboneExtra = 1.0
	g := topology.ArkLike(cfg)
	topology.ResizeGeneral(g, size, seed+1)
	return g
}

// rateDist is the evaluation's flow-size distribution: CAIDA-like
// heavy tail capped so the DP's pseudo-polynomial cost stays sane.
func rateDist() traffic.Distribution {
	d := traffic.DefaultCAIDALike()
	d.Cap = 12
	return d
}

// TreeTrial generates one tree-figure instance.
func TreeTrial(size int, density, lambda float64, k int, seed int64) Trial {
	g, t := treeTopo(size, seed)
	flows := traffic.TreeFlows(t, traffic.GenConfig{
		Density:      density,
		LinkCapacity: DefaultLinkCapacity,
		Dist:         rateDist(),
		Seed:         seed + 2,
	})
	// Same-source flows share the whole path; merging them first is the
	// paper's own DP preprocessing step and speeds everything up.
	flows = traffic.MergeSameSource(flows)
	return Trial{Inst: netsim.MustNew(g, flows, lambda), Tree: t, K: k}
}

// GeneralTrial generates one general-figure instance. Destinations are
// three fixed hubs (the paper's red vertices).
func GeneralTrial(size int, density, lambda float64, k int, seed int64) Trial {
	g := generalTopo(size, seed)
	dsts := []graph.NodeID{0, 1, 2} // hubs are the first vertices by construction
	flows := traffic.GeneralFlows(g, dsts, traffic.GenConfig{
		Density:      density,
		LinkCapacity: DefaultLinkCapacity,
		Dist:         rateDist(),
		Seed:         seed + 2,
	})
	return Trial{Inst: netsim.MustNew(g, flows, lambda), K: k}
}

// FatTreeTrial generates a fabric instance: the k-ary fat-tree's BFS
// spanning tree rooted at a gateway core switch, with leaf-to-root
// flows at the target density.
func FatTreeTrial(arity int, density, lambda float64, k int, seed int64) Trial {
	fabric := topology.FatTree(arity)
	st := topology.SpanningTree(fabric, 0) // core0 is always vertex 0
	t, err := graph.NewTree(st, 0)
	if err != nil {
		panic("experiments: fat-tree spanning tree failed: " + err.Error())
	}
	flows := traffic.TreeFlows(t, traffic.GenConfig{
		Density:      density,
		LinkCapacity: DefaultLinkCapacity,
		Dist:         rateDist(),
		Seed:         seed + 2,
	})
	flows = traffic.MergeSameSource(flows)
	return Trial{Inst: netsim.MustNew(st, flows, lambda), Tree: t, K: k}
}
