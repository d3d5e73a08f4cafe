// Spam-filter placement on a CDN-like distribution tree (the paper's
// §6.5 scenario): a spam filter has traffic-changing ratio λ = 0 — it
// cuts intercepted flows entirely — so placing filters close to
// sources removes spam from the most links, while the box budget pulls
// deployments toward shared ancestors.
//
// The example sweeps the budget k on a 22-vertex tree reduced from the
// Ark-like infrastructure and compares the optimal DP against HAT and
// GTP, printing how much spam bandwidth survives under each budget.
//
// Run with: go run ./examples/spamfilter
package main

import (
	"context"
	"fmt"
	"log"

	"tdmd"
)

func main() {
	const (
		size    = 22
		density = 0.5
		seed    = 2026
	)
	// The distribution tree: 22 vertices, root 0 is the mail exchanger
	// all traffic (spam included) drains to.
	st := tdmd.RandomTree(size, 3, seed)
	tree, err := tdmd.NewTree(st, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Spam workload: heavy-tailed flow sizes from the CAIDA-like
	// distribution, every leaf mails toward the root. Rates are capped
	// to keep the DP sweep below instant.
	dist := tdmd.DefaultCAIDALike()
	dist.Cap = 12
	flows := tdmd.TreeFlows(tree, tdmd.GenConfig{
		Density: density, Seed: seed, Dist: dist, LinkCapacity: 40,
	})
	flows = tdmd.MergeSameSource(flows)

	problem, err := tdmd.NewProblem(st, flows, 0) // λ = 0: spam filter
	if err != nil {
		log.Fatal(err)
	}
	problem.WithTree(tree)

	raw := problem.Instance().RawDemand()
	fmt.Printf("Spam filter placement: %d vertices, %d aggregated flows, raw spam bandwidth %.0f\n",
		st.NumNodes(), len(flows), raw)
	fmt.Printf("%-4s %12s %12s %12s %14s\n", "k", "DP", "HAT", "GTP", "DP spam cut")
	for k := 1; k <= 10; k++ {
		dp, hat, gtp := solve(problem, tdmd.AlgDP, k), solve(problem, tdmd.AlgHAT, k), solve(problem, tdmd.AlgGTP, k)
		fmt.Printf("%-4d %12.1f %12.1f %12.1f %13.1f%%\n",
			k, dp.Bandwidth, hat.Bandwidth, gtp.Bandwidth, 100*(1-dp.Bandwidth/raw))
	}

	// Where does the optimum put the filters once the budget is tight?
	dp3 := solve(problem, tdmd.AlgDP, 3)
	fmt.Println("\nOptimal 3-filter deployment:")
	for _, v := range dp3.Plan.Vertices() {
		fmt.Printf("  filter on %s (depth %d)\n", st.Name(v), tree.Depth(v))
	}
}

// solve runs alg under budget k, exiting on error.
func solve(p *tdmd.Problem, alg tdmd.Algorithm, k int) tdmd.Result {
	res, err := p.Solve(context.Background(), alg, k)
	if err != nil {
		log.Fatalf("%s k=%d: %v", alg, k, err)
	}
	return res
}
