// Command tdmdsim stress-tests a placement under dynamic traffic: it
// reads a JSON problem spec, solves it with the chosen algorithm, then
// replays Poisson flow arrivals (sampled from the spec's flows as
// templates) against the resulting deployment and reports what the
// links saw.
//
// Usage:
//
//	topogen -kind tree -size 22 | tdmdsim -alg dp -k 8 -horizon 1000 -rate 2 -dur 5
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"tdmd"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runArgs(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tdmdsim:", err)
		os.Exit(1)
	}
}

// runArgs parses the command line and runs the simulation. As in
// cmd/tdmd, the default -k only applies to algorithms that consume a
// budget; an explicit -k is always forwarded so mismatches surface as
// errors instead of being silently dropped.
func runArgs(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tdmdsim", flag.ExitOnError)
	var (
		specPath = fs.String("spec", "", "path to a JSON problem spec (default: stdin)")
		algName  = fs.String("alg", string(tdmd.AlgGTP), "placement algorithm")
		k        = fs.Int("k", 10, "middlebox budget")
		horizon  = fs.Float64("horizon", 1000, "simulated duration")
		rate     = fs.Float64("rate", 1.0, "Poisson flow arrival rate")
		dur      = fs.Float64("dur", 5.0, "mean flow duration (exponential)")
		seed     = fs.Int64("seed", 1, "simulation seed, also the seed for randomized algorithms")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	alg := tdmd.Algorithm(*algName)
	solveK := *k
	kExplicit := false
	fs.Visit(func(f *flag.Flag) { kExplicit = kExplicit || f.Name == "k" })
	if !kExplicit && !alg.Budgeted() {
		solveK = 0
	}
	return run(ctx, *specPath, alg, solveK, *horizon, *rate, *dur, *seed, out)
}

func run(ctx context.Context, specPath string, alg tdmd.Algorithm, k int, horizon, rate, dur float64, seed int64, out io.Writer) error {
	var r io.Reader = os.Stdin
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	spec, err := tdmd.DecodeSpecStrict(r)
	if err != nil {
		return err
	}
	problem, err := spec.Build()
	if err != nil {
		return err
	}
	problem.WithSeed(seed)
	res, err := problem.Solve(ctx, alg, k)
	if err != nil {
		return err
	}
	inst := problem.Instance()
	m, err := problem.Simulate(res.Plan, tdmd.SimConfig{
		Horizon:      horizon,
		ArrivalRate:  rate,
		MeanDuration: dur,
		Templates:    inst.Flows(),
		Seed:         seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "plan:               %s (%s, k=%d, static bandwidth %.4g)\n", res.Plan, alg, k, res.Bandwidth)
	fmt.Fprintf(out, "horizon:            %.4g (arrival rate %.4g, mean duration %.4g)\n", horizon, rate, dur)
	fmt.Fprintf(out, "arrivals:           %d (%d unserved)\n", m.Arrivals, m.Unserved)
	fmt.Fprintf(out, "mean active flows:  %.2f (max %d)\n", m.MeanActiveFlows, m.MaxActiveFlows)
	fmt.Fprintf(out, "time-avg bandwidth: %.4g\n", m.TimeAvgBandwidth)
	fmt.Fprintf(out, "peak link load:     %.4g on %s -> %s\n",
		m.PeakLinkLoad, inst.G.Name(m.PeakLink.From), inst.G.Name(m.PeakLink.To))
	return nil
}
