// WAN-optimizer placement on a general WAN topology: a Citrix
// CloudBridge-style optimizer compresses traffic (the paper's intro
// cites up to 80% reduction, i.e. λ ≈ 0.2-0.5). On general graphs the
// feasibility check is NP-hard (Theorem 1), so GTP's greedy with its
// (1 − 1/e) decrement guarantee is the tool.
//
// The example runs on the Ark-like measurement WAN, sends flows from
// monitors toward three collector hubs, sweeps the optimizer's
// compression ratio, and reports how much backbone bandwidth each
// budget saves — including what the set-cover view says about the
// minimum number of boxes needed at all.
//
// Run with: go run ./examples/wanoptimizer
package main

import (
	"context"
	"fmt"
	"log"

	"tdmd"
)

func main() {
	const seed = 7
	g := tdmd.ArkLike(tdmd.DefaultArkConfig(seed))
	collectors := []tdmd.NodeID{0, 1, 2} // three hub collectors

	flows := tdmd.GeneralFlows(g, collectors, tdmd.GenConfig{
		Density: 0.5, Seed: seed, LinkCapacity: 40,
	})
	fmt.Printf("WAN: %d vertices, %d links, %d flows to %d collectors\n",
		g.NumNodes(), g.NumEdges(), len(flows), len(collectors))

	// How many optimizers does full coverage need at minimum? The
	// min-boxes solver runs greedy set cover over the set-cover view of
	// feasibility (Theorem 1); its plan size bounds that minimum.
	problem, err := tdmd.NewProblem(g, flows, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	cover, err := problem.Solve(context.Background(), tdmd.AlgMinBoxes, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Greedy set cover: %d boxes suffice for coverage\n\n", cover.Plan.Size())

	// Sweep the compression ratio at a fixed budget.
	const k = 10
	fmt.Printf("%-8s %14s %14s %12s\n", "lambda", "GTP bandwidth", "raw demand", "saved")
	for _, lambda := range []float64{0, 0.2, 0.5, 0.8} {
		p, err := tdmd.NewProblem(g, flows, lambda)
		if err != nil {
			log.Fatal(err)
		}
		res, err := p.Solve(context.Background(), tdmd.AlgGTP, k)
		if err != nil {
			log.Fatalf("λ=%g: %v", lambda, err)
		}
		raw := p.Instance().RawDemand()
		fmt.Printf("%-8g %14.1f %14.1f %11.1f%%\n",
			lambda, res.Bandwidth, raw, 100*(1-res.Bandwidth/raw))
	}

	// Budget sweep at λ=0.5: the marginal value of each extra box.
	fmt.Printf("\n%-4s %14s %12s\n", "k", "GTP bandwidth", "plan size")
	p05, err := tdmd.NewProblem(g, flows, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range []int{4, 6, 8, 10, 14, 18} {
		res, err := p05.Solve(context.Background(), tdmd.AlgGTP, k)
		if err != nil {
			fmt.Printf("%-4d %14s\n", k, "infeasible")
			continue
		}
		fmt.Printf("%-4d %14.1f %12d\n", k, res.Bandwidth, res.Plan.Size())
	}
}
