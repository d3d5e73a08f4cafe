package placement

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/paperfix"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

func fig5Instance(t *testing.T) (*netsim.Instance, *graph.Tree) {
	t.Helper()
	g, tree, flows, lambda := paperfix.Fig5()
	return netsim.MustNew(g, flows, lambda), tree
}

// Fig. 6 golden values, confirmed by the paper's prose: F(v1, k) for
// k = 1..4 is 24, 16.5, 13.5, 12; F(v2, 1) = 3; F(v2, 2) = 1.5;
// F(v3, 2) = 6; F(v6, 1) = 6; F(v6, 2) = 3.
func TestFig6FullServedValues(t *testing.T) {
	in, tree := fig5Instance(t)
	F, _, err := TreeDPTables(context.Background(), in, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantRoot := []float64{math.Inf(1), 24, 16.5, 13.5, 12}
	got := F[paperfix.V(1)]
	for k := 0; k <= 4; k++ {
		if got[k] != wantRoot[k] {
			t.Fatalf("F(v1, %d) = %v, want %v", k, got[k], wantRoot[k])
		}
	}
	cases := []struct {
		vertex int
		k      int
		want   float64
	}{
		{2, 1, 3}, {2, 2, 1.5}, {3, 2, 6}, {6, 1, 6}, {6, 2, 3},
	}
	for _, c := range cases {
		row := F[paperfix.V(c.vertex)]
		if c.k >= len(row) {
			t.Fatalf("F(v%d) has no k=%d entry (len %d)", c.vertex, c.k, len(row))
		}
		if row[c.k] != c.want {
			t.Fatalf("F(v%d, %d) = %v, want %v", c.vertex, c.k, row[c.k], c.want)
		}
	}
}

// Fig. 7(a) golden values for P(v1, k, b), restricted to the cells we
// verified arithmetically from the model (DESIGN.md documents that
// three printed cells of the paper's table — (k=1,b=6), (k=2,b=5) and
// (k=3,b=6) — are inconsistent with any uniform reading of the
// recurrence, so they are asserted at our derived values instead).
func TestFig7PartialServedRootTable(t *testing.T) {
	in, tree := fig5Instance(t)
	_, P, err := TreeDPTables(context.Background(), in, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	want := [][]float64{
		// b:  0     1     2     3     4     5     6     7     8     9
		{24, inf, inf, inf, inf, inf, inf, inf, inf, inf},   // k=0
		{inf, 22.5, 22, 22.5, inf, 16.5, 18, inf, inf, 24},  // k=1 (paper prints ∞ at b=6; a box on v6 serves f2+f3 for 18)
		{inf, inf, 21.5, 20.5, 21, inf, 15, 14.5, 15, 16.5}, // k=2 (paper prints 16.5 at b=5; no two boxes can process exactly rate 5)
		{inf, inf, inf, 21, 19.5, inf, 15, 14, 13, 13.5},    // k=3 (paper prints ∞ at b=3 and b=6; boxes on v4+v5 leave v2 idle for 21, and v7+v8 leave v6 idle for 15)
	}
	tab := P[paperfix.V(1)]
	for k := 0; k < len(want); k++ {
		for b := 0; b <= 9; b++ {
			if got := tab[k][b]; got != want[k][b] {
				t.Fatalf("P(v1, %d, %d) = %v, want %v", k, b, got, want[k][b])
			}
		}
	}
	// k=4 fully-served entry.
	if tab[4][9] != 12 {
		t.Fatalf("P(v1, 4, 9) = %v, want 12", tab[4][9])
	}
}

// Fig. 7(d)-(h): leaf boundary tables. P(leaf, 0, 0) = 0,
// P(leaf, 1, S) = 0, everything else ∞.
func TestFig7LeafTables(t *testing.T) {
	in, tree := fig5Instance(t)
	_, P, err := TreeDPTables(context.Background(), in, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	leaves := map[int]int{4: 2, 5: 1, 7: 5, 8: 1} // paper vertex -> S
	for vtx, s := range leaves {
		tab := P[paperfix.V(vtx)]
		if len(tab) != 2 {
			t.Fatalf("leaf v%d has %d k-rows, want 2", vtx, len(tab))
		}
		for k := 0; k <= 1; k++ {
			for b := 0; b <= s; b++ {
				want := math.Inf(1)
				if (k == 0 && b == 0) || (k == 1 && b == s) {
					want = 0
				}
				if got := tab[k][b]; got != want {
					t.Fatalf("P(v%d, %d, %d) = %v, want %v", vtx, k, b, got, want)
				}
			}
		}
	}
}

// Paper: the optimal deployment for k=3 is {v2, v7, v8}; for k=2 it is
// {v1, v7} or {v2, v6} (both 16.5).
func TestTreeDPFig5Plans(t *testing.T) {
	in, tree := fig5Instance(t)
	r3, err := TreeDP(context.Background(), in, tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Bandwidth != 13.5 || !r3.Feasible {
		t.Fatalf("k=3: bandwidth %v feasible %v", r3.Bandwidth, r3.Feasible)
	}
	if !planEquals(r3.Plan, paperfix.V(2), paperfix.V(7), paperfix.V(8)) {
		t.Fatalf("k=3 plan = %v, want {v2, v7, v8}", r3.Plan)
	}
	r2, err := TreeDP(context.Background(), in, tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Bandwidth != 16.5 || !r2.Feasible {
		t.Fatalf("k=2: bandwidth %v feasible %v", r2.Bandwidth, r2.Feasible)
	}
	okPlan := planEquals(r2.Plan, paperfix.V(1), paperfix.V(7)) ||
		planEquals(r2.Plan, paperfix.V(2), paperfix.V(6))
	if !okPlan {
		t.Fatalf("k=2 plan = %v, want {v1, v7} or {v2, v6}", r2.Plan)
	}
	r1, err := TreeDP(context.Background(), in, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Bandwidth != 24 || !planEquals(r1.Plan, paperfix.V(1)) {
		t.Fatalf("k=1: plan %v bandwidth %v, want {v1} at 24", r1.Plan, r1.Bandwidth)
	}
	r4, err := TreeDP(context.Background(), in, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Bandwidth != 12 {
		t.Fatalf("k=4 bandwidth = %v, want 12", r4.Bandwidth)
	}
	if !planEquals(r4.Plan, paperfix.V(4), paperfix.V(5), paperfix.V(7), paperfix.V(8)) {
		t.Fatalf("k=4 plan = %v, want all sources", r4.Plan)
	}
}

// With a budget beyond the useful maximum the DP must not get worse.
func TestTreeDPBudgetBeyondLeaves(t *testing.T) {
	in, tree := fig5Instance(t)
	r, err := TreeDP(context.Background(), in, tree, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bandwidth != 12 {
		t.Fatalf("k=8 bandwidth = %v, want 12", r.Bandwidth)
	}
}

func TestTreeDPRejectsNonTreeWorkload(t *testing.T) {
	g, tree, flows, lambda := paperfix.Fig5()
	// Point one flow at a non-root destination.
	flows[0].Path = graph.Path{paperfix.V(4), paperfix.V(2)}
	in := netsim.MustNew(g, flows, lambda)
	if _, err := TreeDP(context.Background(), in, tree, 3); err == nil {
		t.Fatal("non-root destination accepted")
	}
}

func TestTreeDPRejectsZeroBudget(t *testing.T) {
	in, tree := fig5Instance(t)
	if _, err := TreeDP(context.Background(), in, tree, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// randomTreeInstance builds a random tree workload with integral rates.
func randomTreeInstance(rng *rand.Rand, n int) (*netsim.Instance, *graph.Tree) {
	g := topology.RandomTree(n, 0, rng.Int63())
	tree, err := graph.NewTree(g, 0)
	if err != nil {
		panic(err)
	}
	flows := traffic.TreeFlows(tree, traffic.GenConfig{
		Density:  0.4,
		Dist:     traffic.Uniform{Lo: 1, Hi: 6},
		Seed:     rng.Int63(),
		MaxFlows: 12,
	})
	lambda := float64(rng.Intn(10)) / 10
	return netsim.MustNew(g, flows, lambda), tree
}

// The central optimality property (Theorem 4): on random small trees,
// TreeDP matches the exhaustive optimum exactly.
func TestTreeDPOptimalOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(9)
		in, tree := randomTreeInstance(rng, n)
		if in.NumFlows() == 0 {
			continue
		}
		for k := 1; k <= 4; k++ {
			got, err := TreeDP(context.Background(), in, tree, k)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			opt, err := Exhaustive(context.Background(), in, k)
			if err != nil {
				t.Fatalf("trial %d k=%d: exhaustive: %v", trial, k, err)
			}
			if math.Abs(got.Bandwidth-opt.Bandwidth) > 1e-9 {
				t.Fatalf("trial %d k=%d: DP %v (plan %v) != optimum %v (plan %v)",
					trial, k, got.Bandwidth, got.Plan, opt.Bandwidth, opt.Plan)
			}
			if !got.Feasible || got.Plan.Size() > k {
				t.Fatalf("trial %d k=%d: invalid DP result %+v", trial, k, got)
			}
			// The traced plan must reproduce the DP's claimed value.
			if rb := in.TotalBandwidth(got.Plan); math.Abs(rb-got.Bandwidth) > 1e-9 {
				t.Fatalf("trial %d k=%d: traced plan scores %v, DP claimed %v", trial, k, rb, got.Bandwidth)
			}
		}
	}
}

// DP bandwidth is non-increasing in the budget.
func TestTreeDPMonotoneInBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		in, tree := randomTreeInstance(rng, 4+rng.Intn(12))
		if in.NumFlows() == 0 {
			continue
		}
		prev := math.Inf(1)
		for k := 1; k <= 6; k++ {
			r, err := TreeDP(context.Background(), in, tree, k)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if r.Bandwidth > prev+1e-9 {
				t.Fatalf("trial %d: bandwidth rose from %v to %v at k=%d", trial, prev, r.Bandwidth, k)
			}
			prev = r.Bandwidth
		}
	}
}

// With budget >= number of sources, the DP reaches the absolute
// minimum λ·Σ r|p| (Lemma 1).
func TestTreeDPReachesLambdaBound(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 10; trial++ {
		in, tree := randomTreeInstance(rng, 4+rng.Intn(10))
		if in.NumFlows() == 0 {
			continue
		}
		sources := map[graph.NodeID]bool{}
		for _, f := range in.Flows() {
			sources[f.Src()] = true
		}
		r, err := TreeDP(context.Background(), in, tree, len(sources))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := in.Lambda * in.RawDemand()
		if math.Abs(r.Bandwidth-want) > 1e-9 {
			t.Fatalf("trial %d: bandwidth %v, λ bound %v", trial, r.Bandwidth, want)
		}
	}
}

// pathInstance is the 3-vertex path v2 → v1 → v0 (root v0) with one
// flow of the given rate from v2.
func pathInstance(rate int) (*netsim.Instance, *graph.Tree) {
	g := graph.New()
	g.AddNodes(3)
	g.AddBiEdge(0, 1)
	g.AddBiEdge(1, 2)
	tree, err := graph.NewTree(g, 0)
	if err != nil {
		panic(err)
	}
	flows := []traffic.Flow{{ID: 0, Rate: rate, Path: graph.Path{2, 1, 0}}}
	return netsim.MustNew(g, flows, 0.5), tree
}

// The DP's memory is pseudo-polynomial in the total rate, so a run
// over maxDPCells cells is refused before any table exists. On the
// 3-vertex path with k=2 the run holds 13·(rate+1) cells: tables of
// 2, 3 and 3 rows and merges of 2 and 3 rows, each rate+1 wide.
func TestTreeDPCellCap(t *testing.T) {
	cases := []struct {
		name  string
		rate  int
		cells int
		ok    bool
	}{
		{"small", 5, 13 * 6, true},
		{"at cap", 322637, 13 * 322638, true},
		{"one over cap", 322638, 13 * 322639, false},
		{"max rate", math.MaxInt32, 13 << 31, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in, tree := pathInstance(c.rate)
			d, err := newDPRun(in, tree, 2)
			if c.ok {
				if err != nil {
					t.Fatalf("newDPRun: %v", err)
				}
				if got := d.cells(); got != c.cells {
					t.Fatalf("cells = %d, want %d", got, c.cells)
				}
				return
			}
			_, err1 := TreeDP(context.Background(), in, tree, 2)
			_, _, err2 := TreeDPTables(context.Background(), in, tree, 2)
			for _, err := range []error{err, err1, err2} {
				if !errors.Is(err, ErrBadOptions) {
					t.Fatalf("error %v, want ErrBadOptions", err)
				}
				msg := err.Error()
				if !strings.Contains(msg, strconv.Itoa(c.cells)) || !strings.Contains(msg, strconv.Itoa(maxDPCells)) {
					t.Fatalf("error %q does not name %d cells and the cap %d", msg, c.cells, maxDPCells)
				}
			}
		})
	}
	if got := addCells(math.MaxInt-5, 3, 2); got != math.MaxInt {
		t.Fatalf("addCells overflowed to %d, want saturation at math.MaxInt", got)
	}
}

// denseSolveNode is the dense gather the scatter kernel in solveNode
// replaced, kept as FuzzTreeDPKernel's reference: for every target
// (k, b) it scans every child split (k_c, b_c).
func denseSolveNode(d *dpRun, v graph.NodeID) {
	children := d.t.Children(v)
	accK, accB := 0, 0
	acc := newTable(0, 0)
	acc.vals[0] = 0
	var backs []*mergeBack
	for _, c := range children {
		ct := d.memo[c]
		sc := d.subRate[c]
		lambda := d.in.Lambda
		newK := accK + ct.maxK
		if newK > d.budget {
			newK = d.budget
		}
		newB := accB + sc
		merged := newTable(newK, newB)
		back := &mergeBack{maxB: newB,
			kc: make([]int32, (newK+1)*(newB+1)), bc: make([]int32, (newK+1)*(newB+1))}
		for k := 0; k <= newK; k++ {
			for b := 0; b <= newB; b++ {
				best := math.Inf(1)
				bkc, bbc := -1, -1
				for kc := max(k-accK, 0); kc <= min(ct.maxK, k); kc++ {
					for bc := max(b-accB, 0); bc <= min(sc, b); bc++ {
						childVal := ct.at(kc, bc)
						if math.IsInf(childVal, 1) {
							continue
						}
						prev := acc.at(k-kc, b-bc)
						if math.IsInf(prev, 1) {
							continue
						}
						uplink := lambda*float64(bc) + float64(sc-bc)
						if val := prev + childVal + uplink; val < best {
							best, bkc, bbc = val, kc, bc
						}
					}
				}
				i := merged.idx(k, b)
				merged.vals[i] = best
				back.kc[i] = int32(bkc)
				back.bc[i] = int32(bbc)
			}
		}
		acc = merged
		accK, accB = newK, newB
		backs = append(backs, back)
	}
	maxK := d.capK(v)
	sv := d.subRate[v]
	tab := newTable(maxK, sv)
	tab.backs = backs
	for k := 0; k <= maxK && k <= accK; k++ {
		for b := 0; b <= accB; b++ {
			if val := acc.at(k, b); val < tab.at(k, b) {
				i := tab.idx(k, b)
				tab.vals[i] = val
				tab.choice[i] = dpChoice{box: false, childB: int32(b)}
			}
		}
	}
	for k := 1; k <= maxK; k++ {
		best := math.Inf(1)
		bestB := -1
		for b := 0; b <= accB; b++ {
			if val := acc.at(k-1, b); val < best {
				best, bestB = val, b
			}
		}
		if bestB >= 0 && best < tab.at(k, sv) {
			i := tab.idx(k, sv)
			tab.vals[i] = best
			tab.choice[i] = dpChoice{box: true, childB: int32(bestB)}
		}
	}
	d.memo[v] = tab
}

// fuzzTree builds a tree of 1+len(shape) vertices (at most 12): vertex
// i hangs under shape[i-1] mod i. Vertex i sources one flow of rate
// rates[i-1] mod 8 (none when 0 or past the end), so flows start at
// internal vertices as well as leaves.
func fuzzTree(shape, rates []byte, lambda float64) (*netsim.Instance, *graph.Tree) {
	shape = shape[:min(len(shape), 11)]
	n := 1 + len(shape)
	g := graph.New()
	g.AddNodes(n)
	for i, p := range shape {
		g.AddBiEdge(graph.NodeID(int(p)%(i+1)), graph.NodeID(i+1))
	}
	tree, err := graph.NewTree(g, 0)
	if err != nil {
		panic(err)
	}
	var flows []traffic.Flow
	for i := 1; i < n && i-1 < len(rates); i++ {
		if r := int(rates[i-1] % 8); r > 0 {
			flows = append(flows, traffic.Flow{ID: len(flows), Rate: r, Path: tree.PathToRoot(graph.NodeID(i))})
		}
	}
	return netsim.MustNew(g, flows, lambda), tree
}

// FuzzTreeDPKernel proves the scatter merge against the dense gather
// it replaced: on every fuzzed tree, each vertex's memo table — values
// (bit for bit), choices and merge tracebacks — and the traced plan
// must match the reference.
func FuzzTreeDPKernel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2}, []byte{3, 0, 5, 1, 7}, 0.1, uint8(2))
	f.Add([]byte{0, 1, 2, 3}, []byte{1, 2, 3, 4}, 0.3, uint8(1)) // path, internal sources, k = 1
	f.Add([]byte{0, 0, 0, 1, 1, 2, 5}, []byte{6, 0, 2, 5, 3, 7, 1}, 0.7, uint8(3))
	f.Add([]byte{0, 0, 1, 2}, []byte{2, 4, 6, 1}, 0.0, uint8(2))       // λ = 0
	f.Add([]byte{0, 1, 1, 0}, []byte{5, 3, 2, 7}, 1.0, uint8(2))       // λ = 1
	f.Add([]byte{0, 0, 1, 1, 3}, []byte{1, 1, 1, 1, 1}, 0.5, uint8(9)) // k ≥ |V|
	f.Add([]byte{}, []byte{}, 0.5, uint8(1))                           // single vertex
	f.Fuzz(func(t *testing.T, shape, rates []byte, lambda float64, kb uint8) {
		if !(lambda >= 0 && lambda <= 1) {
			lambda = 0.5
		}
		in, tree := fuzzTree(shape, rates, lambda)
		k := 1 + int(kb)%(in.G.NumNodes()+2)
		got, err := newDPRun(in, tree, k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := got.solveCtx(context.Background(), tree.Root); err != nil {
			t.Fatal(err)
		}
		want, _ := newDPRun(in, tree, k)
		for _, v := range tree.PostOrder() {
			denseSolveNode(want, v)
		}
		for v, wt := range want.memo {
			gt := got.memo[v]
			if gt.maxK != wt.maxK || gt.maxB != wt.maxB || len(gt.vals) != len(wt.vals) {
				t.Fatalf("v%d: table %dx%d, want %dx%d", v, gt.maxK, gt.maxB, wt.maxK, wt.maxB)
			}
			for i := range wt.vals {
				if math.Float64bits(gt.vals[i]) != math.Float64bits(wt.vals[i]) || gt.choice[i] != wt.choice[i] {
					t.Fatalf("v%d cell %d: (%v, %+v), want (%v, %+v)", v, i, gt.vals[i], gt.choice[i], wt.vals[i], wt.choice[i])
				}
			}
			if len(gt.backs) != len(wt.backs) {
				t.Fatalf("v%d: %d merge tracebacks, want %d", v, len(gt.backs), len(wt.backs))
			}
			for j, wb := range wt.backs {
				gb := gt.backs[j]
				if gb.maxB != wb.maxB || !slices.Equal(gb.kc, wb.kc) || !slices.Equal(gb.bc, wb.bc) {
					t.Fatalf("v%d merge %d: traceback differs\ngot  kc %v bc %v\nwant kc %v bc %v", v, j, gb.kc, gb.bc, wb.kc, wb.bc)
				}
			}
		}
		r, err := TreeDP(context.Background(), in, tree, k)
		if err != nil {
			t.Fatal(err)
		}
		root, bRoot := want.memo[tree.Root], want.subRate[tree.Root]
		bestK, bestVal := -1, math.Inf(1)
		for kk := 0; kk <= root.maxK; kk++ {
			if val := root.at(kk, bRoot); val < bestVal {
				bestK, bestVal = kk, val
			}
		}
		plan := netsim.NewPlan()
		want.trace(tree.Root, bestK, bRoot, &plan)
		if !slices.Equal(r.Plan.Vertices(), plan.Vertices()) {
			t.Fatalf("plan %v, reference %v", r.Plan, plan)
		}
	})
}
