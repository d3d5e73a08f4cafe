package placement

import (
	"context"
	"fmt"
	"math"
	"time"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
)

// TreeDP is the paper's optimal dynamic program for tree topologies
// (Sec. 5.1), generalized from the binary recurrences (Eqs. 7-8) to
// arbitrary arity by merging children pairwise.
//
// State: P(v, k, b) = minimum bandwidth consumed on the edges inside
// the subtree T_v when exactly k middleboxes are deployed in T_v and
// the flows processed at or below v have total rate exactly b. The
// fully-served value of the paper is F(v, k) = P(v, k, S_v), where S_v
// is the total rate sourced in T_v. The recurrence charges each child
// uplink λ·b_c + (S_c − b_c) — processed flows cross at the diminished
// rate, unprocessed ones at full rate — matching Eqs. (7) and (8).
// Deploying a middlebox on v forces every flow crossing v to be
// processed there at the latest, lifting b to S_v.
//
// Requirements (as in the paper): integral flow rates, all flow
// sources at leaves (or, generally, inside the tree), all destinations
// equal to the root. The run time is pseudo-polynomial in the total
// rate.
//
// The returned Result carries the optimal plan of size ≤ k, obtained
// by minimizing F(root, k') over k' ≤ k and tracing the decisions
// back.
// TreeDP is fail-fast under cancellation: a partially-filled DP table
// has no usable plan, so it polls the context between subtree tables
// and returns the context error when it fires.
func TreeDP(ctx context.Context, in *netsim.Instance, t *graph.Tree, k int) (Result, error) {
	if err := validateBudget(k); err != nil {
		return Result{}, err
	}
	if err := checkTreeWorkload(in, t); err != nil {
		return Result{}, err
	}
	sc := observing(ctx)
	tablesStart := time.Now()
	d := newDPRun(in, t, k)
	root, err := d.solveCtx(ctx, t.Root)
	if err != nil {
		return Result{}, err
	}
	sc.phase("tables", tablesStart)
	// Answer: min over k' <= k of F(root, k') = P(root, k', S_root).
	bRoot := d.subRate[t.Root]
	bestK, bestVal := -1, math.Inf(1)
	for kk := 0; kk <= root.maxK; kk++ {
		if val := root.at(kk, bRoot); val < bestVal {
			bestK, bestVal = kk, val
		}
	}
	if bestK < 0 || math.IsInf(bestVal, 1) {
		return Result{}, ErrInfeasible
	}
	traceStart := time.Now()
	plan := netsim.NewPlan()
	d.trace(root, bestK, bRoot, &plan)
	sc.phase("trace", traceStart)
	r := finishBudget(in, plan, k)
	r.Optimal = true
	return r, nil
}

// TreeDPTables exposes the raw F(v, k) and P(v, k, b) tables for a
// budget k, for golden tests against the paper's Figs. 6-7 and for the
// documentation examples. The maps are keyed by vertex.
func TreeDPTables(ctx context.Context, in *netsim.Instance, t *graph.Tree, k int) (F map[graph.NodeID][]float64, P map[graph.NodeID][][]float64, err error) {
	if err := validateBudget(k); err != nil {
		return nil, nil, err
	}
	if err := checkTreeWorkload(in, t); err != nil {
		return nil, nil, err
	}
	d := newDPRun(in, t, k)
	if _, err := d.solveCtx(ctx, t.Root); err != nil {
		return nil, nil, err
	}
	F = make(map[graph.NodeID][]float64)
	P = make(map[graph.NodeID][][]float64)
	for v, tab := range d.memo {
		if tab == nil {
			continue
		}
		node := graph.NodeID(v)
		S := d.subRate[node]
		fRow := make([]float64, tab.maxK+1)
		pTab := make([][]float64, tab.maxK+1)
		for kk := 0; kk <= tab.maxK; kk++ {
			fRow[kk] = tab.at(kk, S)
			row := make([]float64, S+1)
			for b := 0; b <= S; b++ {
				row[b] = tab.at(kk, b)
			}
			pTab[kk] = row
		}
		F[node] = fRow
		P[node] = pTab
	}
	return F, P, nil
}

// checkTreeWorkload verifies that every flow runs along its tree path
// to the root and the middlebox is traffic-diminishing — the
// preconditions of Sec. 5.
func checkTreeWorkload(in *netsim.Instance, t *graph.Tree) error {
	if in.Lambda > 1 {
		return fmt.Errorf("placement: tree algorithms require a traffic-diminishing middlebox (λ ≤ 1), got λ=%v", in.Lambda)
	}
	for _, f := range in.Flows() {
		if f.Dst() != t.Root {
			return fmt.Errorf("placement: flow %d ends at %d, not the root %d", f.ID, f.Dst(), t.Root)
		}
		want := t.PathToRoot(f.Src())
		if len(want) != len(f.Path) {
			return fmt.Errorf("placement: flow %d does not follow its tree path", f.ID)
		}
		for i := range want {
			if want[i] != f.Path[i] {
				return fmt.Errorf("placement: flow %d does not follow its tree path", f.ID)
			}
		}
	}
	return nil
}

// dpTable stores P(v, ·, ·) for one vertex: rows 0..maxK, columns
// 0..maxB, flattened.
type dpTable struct {
	maxK, maxB int
	vals       []float64
	// choice[k*(maxB+1)+b] records how the state was achieved:
	// box == true means a middlebox sits on the vertex and childB is
	// the processed-rate total of the children merge consumed.
	choice []dpChoice
	// backs[j] holds, for child j, the (k_c, b_c) split chosen when
	// merging that child into the accumulator, indexed by the
	// accumulator state after the merge.
	backs []*mergeBack
}

type dpChoice struct {
	box    bool
	childB int // b of the children accumulator used (box case only)
}

// mergeBack is the traceback table of one child merge step.
type mergeBack struct {
	maxK, maxB int
	kc, bc     []int32
}

func (m *mergeBack) idx(k, b int) int { return k*(m.maxB+1) + b }

func (tb *dpTable) idx(k, b int) int { return k*(tb.maxB+1) + b }

// at returns P(v, k, b), +Inf outside the table.
func (tb *dpTable) at(k, b int) float64 {
	if k < 0 || k > tb.maxK || b < 0 || b > tb.maxB {
		return math.Inf(1)
	}
	return tb.vals[tb.idx(k, b)]
}

func newTable(maxK, maxB int) *dpTable {
	n := (maxK + 1) * (maxB + 1)
	tb := &dpTable{maxK: maxK, maxB: maxB, vals: make([]float64, n), choice: make([]dpChoice, n)}
	for i := range tb.vals {
		tb.vals[i] = math.Inf(1)
	}
	return tb
}

// dpRun carries the per-instance context of one TreeDP execution.
type dpRun struct {
	in      *netsim.Instance
	t       *graph.Tree
	budget  int
	ownRate []int // rate sourced exactly at v
	subRate []int // S_v: rate sourced in T_v
	subSize []int // vertices in T_v (caps the k dimension)
	memo    []*dpTable
}

func newDPRun(in *netsim.Instance, t *graph.Tree, k int) *dpRun {
	n := in.G.NumNodes()
	d := &dpRun{
		in: in, t: t, budget: k,
		ownRate: make([]int, n),
		subRate: make([]int, n),
		subSize: make([]int, n),
		memo:    make([]*dpTable, n),
	}
	for _, f := range in.Flows() {
		d.ownRate[f.Src()] += f.Rate
	}
	for _, v := range t.PostOrder() {
		d.subRate[v] = d.ownRate[v]
		d.subSize[v] = 1
		for _, c := range t.Children(v) {
			d.subRate[v] += d.subRate[c]
			d.subSize[v] += d.subSize[c]
		}
	}
	return d
}

func (d *dpRun) capK(v graph.NodeID) int {
	if d.subSize[v] < d.budget {
		return d.subSize[v]
	}
	return d.budget
}

// solveCtx computes the tables of the whole subtree rooted at v in
// post-order and returns v's table, polling the context between
// per-vertex tables (each table is the natural preemption granule).
func (d *dpRun) solveCtx(ctx context.Context, v graph.NodeID) (*dpTable, error) {
	if d.memo[v] != nil {
		return d.memo[v], nil
	}
	for _, u := range d.t.SubtreeNodes(v) {
		if canceled(ctx) {
			return nil, interruptedErr(ctx)
		}
		if d.memo[u] == nil {
			d.solveNode(u)
		}
	}
	return d.memo[v], nil
}

// solveNode computes the table of a single vertex whose children are
// already solved; TreeDP drives it in post-order.
func (d *dpRun) solveNode(v graph.NodeID) *dpTable {
	children := d.t.Children(v)
	// Children accumulator: acc[k][b] = min cost of the already-merged
	// child subtrees plus their uplink loads, with k boxes among them
	// and total processed rate b.
	accK, accB := 0, 0
	acc := newTable(0, 0)
	acc.vals[0] = 0
	var backs []*mergeBack
	for _, c := range children {
		ct := d.memo[c] // children are solved before their parent
		if ct == nil {
			panic("placement: TreeDP child table missing (scheduling bug)")
		}
		sc := d.subRate[c]
		lambda := d.in.Lambda
		newK := accK + ct.maxK
		if newK > d.budget {
			newK = d.budget
		}
		newB := accB + sc
		merged := newTable(newK, newB)
		back := &mergeBack{maxK: newK, maxB: newB,
			kc: make([]int32, (newK+1)*(newB+1)), bc: make([]int32, (newK+1)*(newB+1))}
		for k := 0; k <= newK; k++ {
			for b := 0; b <= newB; b++ {
				best := math.Inf(1)
				bkc, bbc := -1, -1
				loK := k - accK
				if loK < 0 {
					loK = 0
				}
				hiK := ct.maxK
				if hiK > k {
					hiK = k
				}
				for kc := loK; kc <= hiK; kc++ {
					loB := b - accB
					if loB < 0 {
						loB = 0
					}
					hiB := sc
					if hiB > b {
						hiB = b
					}
					for bc := loB; bc <= hiB; bc++ {
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
	// Assemble the vertex table from the accumulator.
	maxK := d.capK(v)
	maxB := d.subRate[v]
	tab := newTable(maxK, maxB)
	tab.backs = backs
	// No middlebox on v: flows sourced at v stay unprocessed, so b is
	// exactly the children's processed rate.
	for k := 0; k <= maxK && k <= accK; k++ {
		for b := 0; b <= accB; b++ {
			if val := acc.at(k, b); val < tab.at(k, b) {
				i := tab.idx(k, b)
				tab.vals[i] = val
				tab.choice[i] = dpChoice{box: false, childB: b}
			}
		}
	}
	// Middlebox on v: every flow crossing v is processed by v at the
	// latest, so b = S_v; the children may be in any partial state.
	sv := d.subRate[v]
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
			tab.choice[i] = dpChoice{box: true, childB: bestB}
		}
	}
	d.memo[v] = tab
	// The accumulator's own backs are kept; intermediate accumulators
	// were folded into `backs` step by step, so child splits can be
	// unwound right-to-left during trace.
	return tab
}

// trace reconstructs the plan for state (k, b) at the vertex owning
// tab, appending chosen vertices to plan.
func (d *dpRun) trace(tab *dpTable, k, b int, plan *netsim.Plan) {
	v := d.owner(tab)
	ch := tab.choice[tab.idx(k, b)]
	if ch.box {
		plan.Add(v)
		k--
	}
	b = ch.childB
	// Unwind child merges right to left.
	children := d.t.Children(v)
	for j := len(children) - 1; j >= 0; j-- {
		back := tab.backs[j]
		i := back.idx(k, b)
		kc, bc := int(back.kc[i]), int(back.bc[i])
		if kc < 0 || bc < 0 {
			panic(fmt.Sprintf("placement: TreeDP trace hit an unreachable state at vertex %d (k=%d b=%d)", v, k, b))
		}
		d.trace(d.memo[children[j]], kc, bc, plan)
		k -= kc
		b -= bc
	}
	if k != 0 || b != 0 {
		panic(fmt.Sprintf("placement: TreeDP trace ended with k=%d b=%d at vertex %d", k, b, v))
	}
}

// owner finds the vertex whose memoized table is tab. Tables are
// unique per vertex, so a linear scan is fine (trace visits each
// vertex once).
func (d *dpRun) owner(tab *dpTable) graph.NodeID {
	for v, t := range d.memo {
		if t == tab {
			return graph.NodeID(v)
		}
	}
	panic("placement: unknown DP table")
}
