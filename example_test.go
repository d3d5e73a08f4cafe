package tdmd_test

import (
	"context"
	"fmt"
	"strings"

	"tdmd"
)

// The paper's Fig. 1 instance, solved with the budgeted greedy.
func ExampleProblem_Solve() {
	g := tdmd.NewGraph()
	v := make([]tdmd.NodeID, 7)
	for i := 1; i <= 6; i++ {
		v[i] = g.AddNode(fmt.Sprintf("v%d", i))
	}
	for _, e := range [][2]int{{5, 3}, {3, 1}, {6, 3}, {3, 2}, {6, 2}, {4, 2}} {
		g.AddEdge(v[e[0]], v[e[1]])
	}
	flows := []tdmd.Flow{
		{ID: 0, Rate: 4, Path: tdmd.Path{v[5], v[3], v[1]}},
		{ID: 1, Rate: 2, Path: tdmd.Path{v[6], v[3], v[2]}},
		{ID: 2, Rate: 2, Path: tdmd.Path{v[6], v[2]}},
		{ID: 3, Rate: 2, Path: tdmd.Path{v[4], v[2]}},
	}
	p, err := tdmd.NewProblem(g, flows, 0.5)
	if err != nil {
		panic(err)
	}
	for _, k := range []int{2, 3} {
		res, err := p.Solve(context.Background(), tdmd.AlgGTP, k)
		if err != nil {
			panic(err)
		}
		fmt.Printf("k=%d: bandwidth %g\n", k, res.Bandwidth)
	}
	// Output:
	// k=2: bandwidth 12
	// k=3: bandwidth 8
}

// The optimal tree DP on the paper's Fig. 5 example.
func ExampleProblem_Solve_treeDP() {
	g := tdmd.NewGraph()
	v := make([]tdmd.NodeID, 9)
	for i := 1; i <= 8; i++ {
		v[i] = g.AddNode(fmt.Sprintf("v%d", i))
	}
	for _, e := range [][2]int{{1, 2}, {1, 3}, {2, 4}, {2, 5}, {3, 6}, {6, 7}, {6, 8}} {
		g.AddBiEdge(v[e[0]], v[e[1]])
	}
	tree, err := tdmd.NewTree(g, v[1])
	if err != nil {
		panic(err)
	}
	flows := []tdmd.Flow{
		{ID: 0, Rate: 2, Path: tree.PathToRoot(v[4])},
		{ID: 1, Rate: 1, Path: tree.PathToRoot(v[8])},
		{ID: 2, Rate: 5, Path: tree.PathToRoot(v[7])},
		{ID: 3, Rate: 1, Path: tree.PathToRoot(v[5])},
	}
	p, err := tdmd.NewProblem(g, flows, 0.5)
	if err != nil {
		panic(err)
	}
	p.WithTree(tree)
	for k := 1; k <= 4; k++ {
		res, err := p.Solve(context.Background(), tdmd.AlgDP, k)
		if err != nil {
			panic(err)
		}
		fmt.Printf("F(root, %d) = %g\n", k, res.Bandwidth)
	}
	// Output:
	// F(root, 1) = 24
	// F(root, 2) = 16.5
	// F(root, 3) = 13.5
	// F(root, 4) = 12
}

// Scoring a hand-written deployment.
func ExampleProblem_Evaluate() {
	g := tdmd.NewGraph()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	flows := []tdmd.Flow{{ID: 0, Rate: 4, Path: tdmd.Path{a, b, c}}}
	p, _ := tdmd.NewProblem(g, flows, 0.5)
	fmt.Println(p.Evaluate(tdmd.NewPlan(a)).Bandwidth) // processed at the source
	fmt.Println(p.Evaluate(tdmd.NewPlan(b)).Bandwidth) // processed mid-path
	fmt.Println(p.Evaluate(tdmd.NewPlan()).Feasible)   // nothing deployed
	// Output:
	// 4
	// 6
	// false
}

// Generating a workload and simulating it dynamically.
func ExampleProblem_Simulate() {
	g := tdmd.RandomTree(10, 2, 1)
	tree, _ := tdmd.NewTree(g, 0)
	flows := tdmd.TreeFlows(tree, tdmd.GenConfig{Density: 0.4, Seed: 2})
	p, _ := tdmd.NewProblem(g, flows, 0.5)
	p.WithTree(tree)
	res, _ := p.Solve(context.Background(), tdmd.AlgHAT, 3)
	m, _ := p.Simulate(res.Plan, tdmd.SimConfig{Horizon: 10, InitialFlows: flows})
	fmt.Println(m.TimeAvgBandwidth == res.Bandwidth)
	// Output:
	// true
}

// Reading a real-world topology (Internet Topology Zoo GML subset).
func ExampleReadGML() {
	gml := `graph [
	  node [ id 0 label "hub" ]
	  node [ id 1 label "west" ]
	  node [ id 2 label "east" ]
	  edge [ source 0 target 1 ]
	  edge [ source 0 target 2 ]
	]`
	g, err := tdmd.ReadGML(strings.NewReader(gml))
	if err != nil {
		panic(err)
	}
	fmt.Println(g.NumNodes(), g.NumEdges()/2, g.Name(0))
	// Output:
	// 3 2 hub
}

// Failure analysis: which middlebox hurts most, and how to repair.
func ExampleProblem_Repair() {
	g := tdmd.NewGraph()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	flows := []tdmd.Flow{
		{ID: 0, Rate: 4, Path: tdmd.Path{a, b, c}},
		{ID: 1, Rate: 2, Path: tdmd.Path{b, c}},
	}
	p, _ := tdmd.NewProblem(g, flows, 0.5)
	res, _ := p.Solve(context.Background(), tdmd.AlgGTP, 1) // single box on b
	worst := p.FailureRanking(res.Plan)[0]
	fmt.Println("failing vertex", worst.Failed, "strands", worst.UnservedFlows, "flows")
	repaired, _ := p.Repair(context.Background(), res.Plan, worst.Failed, 2)
	fmt.Println("repaired:", repaired.Feasible, "plan size", repaired.Plan.Size())
	// Output:
	// failing vertex 1 strands 2 flows
	// repaired: true plan size 2
}

// Capacitated placement: boxes with a processing limit must spread.
func ExampleProblem_Solve_capacitated() {
	g := tdmd.NewGraph()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	g.AddEdge(a, c)
	g.AddEdge(b, c)
	g.AddEdge(c, d)
	flows := []tdmd.Flow{
		{ID: 0, Rate: 3, Path: tdmd.Path{a, c, d}},
		{ID: 1, Rate: 3, Path: tdmd.Path{b, c, d}},
	}
	p, _ := tdmd.NewProblem(g, flows, 0.5)
	ctx := context.Background()
	shared, _ := p.Solve(ctx, tdmd.AlgCapacitated, 2, tdmd.WithCapacity(6)) // both flows fit one box at c
	spread, _ := p.Solve(ctx, tdmd.AlgCapacitated, 2, tdmd.WithCapacity(3)) // capacity 3: c fits one flow, the other spreads out
	fmt.Println(shared.Bandwidth, spread.Bandwidth)
	// Output:
	// 7.5 6
}
