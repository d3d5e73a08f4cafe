// Data-center middlebox placement on fat-tree and BCube fabrics — the
// tree-based tiered topologies the paper names as natural tree-ish
// deployment targets (Sec. 5 cites Fat-tree [3] and BCube [14]).
//
// Scenario: an IDS/DPI tier must inspect all tenant traffic leaving
// edge switches toward a gateway core switch. On the fat-tree we route
// along an aggregation spanning tree (edge -> agg -> core) so the
// optimal DP applies; on BCube we treat the fabric as a general graph
// and use GTP. The example reports where each budget puts the
// inspectors and validates the analytic bandwidth against the
// hop-by-hop link-load simulator.
//
// Run with: go run ./examples/datacenter
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"tdmd"
)

func main() {
	fatTree()
	bcube()
}

func fatTree() {
	g := tdmd.FatTree(4)
	// Gateway = core0. Route along the BFS spanning tree rooted there:
	// every edge switch reaches core0 via its pod's agg0.
	st := tdmd.SpanningTree(g, g.NodeByName("core0"))
	tree, err := tdmd.NewTree(st, g.NodeByName("core0"))
	if err != nil {
		log.Fatal(err)
	}
	// One aggregated tenant flow per edge switch, rates varying by pod.
	var flows []tdmd.Flow
	for pod := 0; pod < 4; pod++ {
		for e := 0; e < 2; e++ {
			src := st.NodeByName(fmt.Sprintf("edge%d.%d", pod, e))
			flows = append(flows, tdmd.Flow{
				ID: len(flows), Rate: 2 + pod, Path: tree.PathToRoot(src),
			})
		}
	}
	problem, err := tdmd.NewProblem(st, flows, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	problem.WithTree(tree)

	fmt.Println("Fat-tree k=4 fabric: IDS placement toward gateway core0")
	fmt.Printf("%-4s %10s %10s %10s   %s\n", "k", "DP", "HAT", "GTP", "DP plan")
	for _, k := range []int{1, 2, 4, 8} {
		dp, hat, gtp := solve(problem, tdmd.AlgDP, k), solve(problem, tdmd.AlgHAT, k), solve(problem, tdmd.AlgGTP, k)
		names := make([]string, 0, dp.Plan.Size())
		for _, v := range dp.Plan.Vertices() {
			names = append(names, st.Name(v))
		}
		fmt.Printf("%-4d %10.1f %10.1f %10.1f   %v\n", k, dp.Bandwidth, hat.Bandwidth, gtp.Bandwidth, names)
	}

	// Cross-check the analytic objective against the link-load
	// simulator on the k=4 optimum.
	dp4 := solve(problem, tdmd.AlgDP, 4)
	loads := problem.Instance().LinkLoads(dp4.Plan)
	if sum := tdmd.SumLoads(loads); math.Abs(sum-dp4.Bandwidth) > 1e-9 {
		log.Fatalf("model mismatch: links sum to %v, objective %v", sum, dp4.Bandwidth)
	}
	key, max := tdmd.MaxLinkLoad(loads)
	fmt.Printf("link-load check OK; hottest link %s -> %s carries %.1f\n\n",
		st.Name(key.From), st.Name(key.To), max)
}

// solve runs alg under budget k, exiting on error.
func solve(p *tdmd.Problem, alg tdmd.Algorithm, k int) tdmd.Result {
	res, err := p.Solve(context.Background(), alg, k)
	if err != nil {
		log.Fatalf("%s k=%d: %v", alg, k, err)
	}
	return res
}

func bcube() {
	g := tdmd.BCube(4, 1)
	// Traffic: every server sends one flow to server 0 (an aggregation
	// job's reducer) over minimum-hop routes. BCube is not a tree, so
	// GTP handles placement.
	var flows []tdmd.Flow
	reducer := tdmd.NodeID(0)
	for s := 1; s < 16; s++ {
		p, err := g.ShortestPath(tdmd.NodeID(s), reducer)
		if err != nil {
			log.Fatal(err)
		}
		flows = append(flows, tdmd.Flow{ID: len(flows), Rate: 1 + s%3, Path: p})
	}
	problem, err := tdmd.NewProblem(g, flows, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("BCube(4,1) fabric: DPI placement for a 16-server shuffle (λ=0.3)")
	fmt.Printf("%-4s %12s %10s\n", "k", "GTP", "plan size")
	for _, k := range []int{2, 4, 6, 8} {
		res, err := problem.Solve(context.Background(), tdmd.AlgGTP, k)
		if err != nil {
			fmt.Printf("%-4d %12s\n", k, "infeasible")
			continue
		}
		fmt.Printf("%-4d %12.1f %10d\n", k, res.Bandwidth, res.Plan.Size())
	}
}
