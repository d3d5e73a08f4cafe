// Command tdmd solves one TDMD instance: it reads a JSON problem spec
// (see tdmd.ProblemSpec), runs the requested placement algorithm with
// the given middlebox budget, and prints the deployment plan, the
// per-flow allocation, and the total bandwidth consumption.
//
// Usage:
//
//	tdmd -spec problem.json -alg gtp -k 10
//	topogen -kind tree -size 22 | tdmd -alg dp -k 8
//
// With no -spec the spec is read from standard input.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tdmd"
)

func main() {
	var (
		specPath = flag.String("spec", "", "path to a JSON problem spec (default: stdin)")
		stream   = flag.Bool("stream", false, "ingest the input with the streaming decoder (accepts spec documents and NDJSON flow streams; O(1) decoder memory)")
		algName  = flag.String("alg", string(tdmd.AlgGTP), "algorithm: "+algorithmList())
		k        = flag.Int("k", 10, "middlebox budget")
		seed     = flag.Int64("seed", 1, "seed for randomized algorithms")
		quiet    = flag.Bool("q", false, "print only the total bandwidth")
		compare  = flag.Bool("compare", false, "run every applicable algorithm and print a comparison table")
		capacity = flag.Int("capacity", 0, "per-middlebox processing capacity (0 = unlimited; uses the capacitated greedy)")
		savePlan = flag.String("saveplan", "", "write the solved plan as JSON to this file")
		evalPlan = flag.String("evalplan", "", "evaluate a JSON plan file instead of solving")
		stats    = flag.Bool("stats", false, "after running, dump the collected solver metrics as JSON to stderr")
	)
	flag.Parse()
	// Ctrl-C / SIGTERM cancels the solve; anytime algorithms still
	// print their best plan found so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The default -k only applies to algorithms that consume a budget;
	// an explicit -k is always forwarded so mismatches surface as
	// ErrBadOptions instead of being silently dropped.
	kExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "k" {
			kExplicit = true
		}
	})
	var err error
	load := func() (*tdmd.Problem, error) { return loadProblem(*specPath, *stream) }
	switch {
	case *compare:
		err = runCompare(ctx, load, *k, *seed, os.Stdout)
	case *capacity > 0:
		err = runCapacitated(ctx, load, *k, *capacity, os.Stdout)
	case *evalPlan != "":
		err = runEvalPlan(load, *evalPlan, os.Stdout)
	default:
		alg := tdmd.Algorithm(*algName)
		solveK := *k
		if !kExplicit && !alg.Budgeted() {
			solveK = 0
		}
		err = run(ctx, load, alg, solveK, *seed, *quiet, *savePlan, os.Stdout)
	}
	if *stats {
		// Stats go to stderr so -q output stays pipeable; dumped even
		// after a failed solve, where the outcome counters are the story.
		if serr := tdmd.WriteMetricsJSON(os.Stderr); serr != nil {
			fmt.Fprintln(os.Stderr, "tdmd: writing stats:", serr)
		}
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdmd:", err)
		os.Exit(1)
	}
}

// algorithmList names every algorithm -alg accepts: the ones -compare
// runs, then the two it leaves out.
func algorithmList() string {
	var names []string
	for _, alg := range tdmd.Algorithms() {
		names = append(names, string(alg))
	}
	return strings.Join(append(names, string(tdmd.AlgBnB), string(tdmd.AlgCapacitated)), ", ")
}

// runCompare solves the instance with every algorithm that applies
// (tree-only ones when the spec declares a root, exhaustive when the
// instance is small) and prints one row per algorithm.
func runCompare(ctx context.Context, load loadFunc, k int, seed int64, out io.Writer) error {
	problem, err := load()
	if err != nil {
		return err
	}
	problem.WithSeed(seed)
	inst := problem.Instance()
	fmt.Fprintf(out, "network: %d vertices, %d links, %d flows, lambda=%g, k=%d (raw demand %g)\n",
		inst.G.NumNodes(), inst.G.NumEdges(), inst.NumFlows(), inst.Lambda, k, inst.RawDemand())
	fmt.Fprintf(out, "%-14s %14s %10s %12s   %s\n", "algorithm", "bandwidth", "boxes", "time", "plan")
	for _, alg := range tdmd.Algorithms() {
		if alg.NeedsTree() && problem.Tree() == nil {
			continue
		}
		if alg == tdmd.AlgExhaustive && inst.G.NumNodes() > 20 {
			continue
		}
		solveK := k
		if !alg.Budgeted() {
			solveK = 0 // unbudgeted algorithms reject an explicit k
		}
		start := time.Now()
		res, err := problem.Solve(ctx, alg, solveK)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(out, "%-14s %14s %10s %12s\n", alg, "-", "-", err)
			continue
		}
		fmt.Fprintf(out, "%-14s %14.4g %10d %12s   %s\n",
			alg, res.Bandwidth, res.Plan.Size(), elapsed.Round(time.Microsecond), res.Plan)
	}
	return nil
}

// runCapacitated solves with the capacitated greedy and prints the
// per-box load report, which is the point of capacities.
func runCapacitated(ctx context.Context, load loadFunc, k, capacity int, out io.Writer) error {
	problem, err := load()
	if err != nil {
		return err
	}
	res, err := problem.Solve(ctx, tdmd.AlgCapacitated, k, tdmd.WithCapacity(capacity))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "capacitated greedy (k=%d, capacity %d per box)\n", k, capacity)
	fmt.Fprintf(out, "plan:      %s\n", res.Plan)
	fmt.Fprintf(out, "bandwidth: %g\n", res.Bandwidth)
	inst := problem.Instance()
	alloc := inst.AllocateCapacitated(res.Plan, capacity)
	boxLoad := map[tdmd.NodeID]int{}
	for i, v := range alloc {
		if v != tdmd.Unserved {
			boxLoad[v] += inst.FlowRate(i)
		}
	}
	for _, v := range res.Plan.Vertices() {
		fmt.Fprintf(out, "  box @%s: load %d/%d\n", inst.G.Name(v), boxLoad[v], capacity)
	}
	return nil
}

// loadFunc loads the problem named on the command line.
type loadFunc func() (*tdmd.Problem, error)

// loadProblem reads and builds a problem from a file or stdin. The
// default path decodes a spec document strictly (unknown fields are
// an error naming the field); -stream ingests through the streaming
// decoder instead, which accepts both spec documents and NDJSON flow
// streams in O(1) decoder working memory.
func loadProblem(specPath string, stream bool) (*tdmd.Problem, error) {
	var r io.Reader = os.Stdin
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = bufio.NewReaderSize(f, 1<<16)
	}
	if stream {
		return tdmd.DecodeStream(r)
	}
	spec, err := tdmd.DecodeSpecStrict(r)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

// runEvalPlan scores an externally supplied plan against the spec's
// instance and prints the deployment report.
func runEvalPlan(load loadFunc, planPath string, out io.Writer) error {
	problem, err := load()
	if err != nil {
		return err
	}
	f, err := os.Open(planPath)
	if err != nil {
		return err
	}
	defer f.Close()
	plan, err := tdmd.DecodePlan(f, problem.Instance().G)
	if err != nil {
		return err
	}
	res := problem.Evaluate(plan)
	fmt.Fprint(out, problem.Report(res.Plan))
	fmt.Fprintf(out, "bandwidth: %g (feasible=%v)\n", res.Bandwidth, res.Feasible)
	return nil
}

func run(ctx context.Context, load loadFunc, alg tdmd.Algorithm, k int, seed int64, quiet bool, savePlan string, out io.Writer) error {
	problem, err := load()
	if err != nil {
		return err
	}
	problem.WithSeed(seed)
	if alg.NeedsTree() && problem.Tree() == nil {
		return fmt.Errorf("algorithm %s needs a tree: set \"root\" in the spec", alg)
	}
	res, err := problem.Solve(ctx, alg, k)
	if err != nil {
		return err
	}
	if res.Interrupted != nil {
		fmt.Fprintf(out, "interrupted (%v): best plan found so far\n", res.Interrupted)
	}
	if quiet {
		fmt.Fprintf(out, "%g\n", res.Bandwidth)
		return nil
	}
	inst := problem.Instance()
	fmt.Fprintf(out, "algorithm:  %s (k=%d)\n", alg, k)
	fmt.Fprintf(out, "network:    %d vertices, %d links, %d flows, lambda=%g\n",
		inst.G.NumNodes(), inst.G.NumEdges(), inst.NumFlows(), inst.Lambda)
	fmt.Fprintf(out, "plan:       %s (%d middleboxes)\n", res.Plan, res.Plan.Size())
	for _, v := range res.Plan.Vertices() {
		fmt.Fprintf(out, "  middlebox on %s (vertex %d)\n", inst.G.Name(v), v)
	}
	fmt.Fprint(out, problem.Report(res.Plan))
	fmt.Fprintf(out, "bandwidth:  %g (raw demand %g, decrement %g)\n",
		res.Bandwidth, inst.RawDemand(), inst.Decrement(res.Plan))
	if savePlan != "" {
		pf, err := os.Create(savePlan)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := tdmd.EncodePlan(pf, res.Plan); err != nil {
			return err
		}
		fmt.Fprintf(out, "plan saved to %s\n", savePlan)
	}
	return nil
}
