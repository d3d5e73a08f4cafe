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
// equal to the root. The run time and memory are pseudo-polynomial in
// the total rate, so a run whose vertex tables and merge tracebacks
// would exceed maxDPCells (2^22) cells is refused with ErrBadOptions
// before any table is allocated; at the cap they hold ~64 MiB.
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
	d, err := newDPRun(in, t, k)
	if err != nil {
		return Result{}, err
	}
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
	d.trace(t.Root, bestK, bRoot, &plan)
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
	d, err := newDPRun(in, t, k)
	if err != nil {
		return nil, nil, err
	}
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

// maxDPCells caps the cells one TreeDP run allocates: every vertex
// table cell (a float64 and a dpChoice, 16 bytes) plus every child
// merge's traceback cell (two int32s, 8 bytes). The DP is
// pseudo-polynomial in the total rate, so without the cap one small
// request with a huge rate could exhaust the process's memory.
const maxDPCells = 1 << 22

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
	childB int32 // b of the children accumulator used (box case only)
}

// mergeBack is the traceback table of one child merge step; kc and bc
// are −1 at accumulator states no split reaches.
type mergeBack struct {
	maxB   int
	kc, bc []int32
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
	// Merge scratch shared by every vertex: the children accumulator's
	// values ping-pong between acc[0] and acc[1], and finite lists the
	// accumulator's reachable states.
	acc    [2][]float64
	finite []dpState
}

// dpState is one reachable accumulator state: k boxes at value v. off
// is its index in the merged table when the child contributes (0, 0).
type dpState struct {
	k, off int
	v      float64
}

// newDPRun sizes a TreeDP run and refuses, with ErrBadOptions, one
// whose tables would exceed maxDPCells; nothing large is allocated
// before the check.
func newDPRun(in *netsim.Instance, t *graph.Tree, k int) (*dpRun, error) {
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
	if cells := d.cells(); cells > maxDPCells {
		return nil, fmt.Errorf("placement: tree DP needs %d table cells, above the cap of %d (its size grows with the total flow rate): %w",
			cells, maxDPCells, ErrBadOptions)
	}
	return d, nil
}

// cells counts the run's vertex-table and merge-traceback cells,
// saturating at math.MaxInt instead of overflowing.
func (d *dpRun) cells() int {
	total := 0
	for _, v := range d.t.PostOrder() {
		total = addCells(total, d.capK(v)+1, d.subRate[v]+1)
		k, b := 0, 0
		for _, c := range d.t.Children(v) {
			k = min(k+d.capK(c), d.budget)
			b += d.subRate[c]
			total = addCells(total, k+1, b+1)
		}
	}
	return total
}

// addCells returns total + a·b for non-negative total and a and
// positive b, or math.MaxInt when that overflows.
func addCells(total, a, b int) int {
	if a > (math.MaxInt-total)/b {
		return math.MaxInt
	}
	return total + a*b
}

func (d *dpRun) capK(v graph.NodeID) int { return min(d.subSize[v], d.budget) }

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
//
// Each child merge scatters instead of gathering: every finite child
// state (k_c, b_c) relaxes every finite accumulator state it can reach.
// Most states are +Inf — b can only be a sum of the children's
// reachable rates — so this skips the bulk of a dense scan over all
// (target, split) pairs. The value expression is the gather's, so the
// floats are bit-identical; and each target meets its candidates in
// ascending (k_c, b_c) order, as the gather did, so under strict < the
// same first minimum wins and the traceback is unchanged.
func (d *dpRun) solveNode(v graph.NodeID) *dpTable {
	children := d.t.Children(v)
	lambda := d.in.Lambda
	// Children accumulator: acc[k*(accB+1)+b] = min cost of the
	// already-merged child subtrees plus their uplink loads, with k
	// boxes among them and total processed rate b.
	accK, accB, side := 0, 0, 0
	acc := append(d.acc[side][:0], 0)
	d.acc[side] = acc
	backs := make([]*mergeBack, 0, len(children))
	for _, c := range children {
		ct := d.memo[c] // children are solved before their parent
		if ct == nil {
			panic("placement: TreeDP child table missing (scheduling bug)")
		}
		sc := d.subRate[c]
		newK := min(accK+ct.maxK, d.budget)
		newB := accB + sc
		n := (newK + 1) * (newB + 1)
		finite := d.finite[:0]
		for ka := 0; ka <= accK; ka++ {
			for ba, val := range acc[ka*(accB+1) : (ka+1)*(accB+1)] {
				if !math.IsInf(val, 1) {
					finite = append(finite, dpState{k: ka, off: ka*(newB+1) + ba, v: val})
				}
			}
		}
		d.finite = finite
		side ^= 1
		if cap(d.acc[side]) < n {
			d.acc[side] = make([]float64, n)
		}
		merged := d.acc[side][:n]
		for i := range merged {
			merged[i] = math.Inf(1)
		}
		splits := make([]int32, 2*n)
		for i := range splits {
			splits[i] = -1
		}
		back := &mergeBack{maxB: newB, kc: splits[:n:n], bc: splits[n:]}
		for kc := 0; kc <= ct.maxK && kc <= newK; kc++ {
			for bc, childVal := range ct.vals[kc*(sc+1) : (kc+1)*(sc+1)] {
				if math.IsInf(childVal, 1) {
					continue
				}
				uplink := lambda*float64(bc) + float64(sc-bc)
				shift := kc*(newB+1) + bc
				for _, s := range finite { // k-major: stop past newK
					if s.k+kc > newK {
						break
					}
					i := s.off + shift
					if val := s.v + childVal + uplink; val < merged[i] {
						merged[i] = val
						back.kc[i], back.bc[i] = int32(kc), int32(bc)
					}
				}
			}
		}
		acc = merged
		accK, accB = newK, newB
		backs = append(backs, back)
	}
	// Assemble the vertex table from the accumulator.
	maxK := d.capK(v)
	sv := d.subRate[v]
	tab := newTable(maxK, sv)
	tab.backs = backs
	// No middlebox on v: flows sourced at v stay unprocessed, so b is
	// exactly the children's processed rate.
	for k := 0; k <= maxK && k <= accK; k++ {
		for b, val := range acc[k*(accB+1) : (k+1)*(accB+1)] {
			if i := tab.idx(k, b); val < tab.vals[i] {
				tab.vals[i] = val
				tab.choice[i] = dpChoice{box: false, childB: int32(b)}
			}
		}
	}
	// Middlebox on v: every flow crossing v is processed by v at the
	// latest, so b = S_v; the children may be in any partial state.
	for k := 1; k <= maxK && k-1 <= accK; k++ {
		best := math.Inf(1)
		bestB := -1
		for b, val := range acc[(k-1)*(accB+1) : k*(accB+1)] {
			if val < best {
				best, bestB = val, b
			}
		}
		if i := tab.idx(k, sv); bestB >= 0 && best < tab.vals[i] {
			tab.vals[i] = best
			tab.choice[i] = dpChoice{box: true, childB: int32(bestB)}
		}
	}
	d.memo[v] = tab
	return tab
}

// trace reconstructs the plan for state (k, b) at vertex v, appending
// chosen vertices to plan.
func (d *dpRun) trace(v graph.NodeID, k, b int, plan *netsim.Plan) {
	tab := d.memo[v]
	ch := tab.choice[tab.idx(k, b)]
	if ch.box {
		plan.Add(v)
		k--
	}
	b = int(ch.childB)
	// Unwind child merges right to left.
	children := d.t.Children(v)
	for j := len(children) - 1; j >= 0; j-- {
		back := tab.backs[j]
		i := back.idx(k, b)
		kc, bc := int(back.kc[i]), int(back.bc[i])
		if kc < 0 || bc < 0 {
			panic(fmt.Sprintf("placement: TreeDP trace hit an unreachable state at vertex %d (k=%d b=%d)", v, k, b))
		}
		d.trace(children[j], kc, bc, plan)
		k -= kc
		b -= bc
	}
	if k != 0 || b != 0 {
		panic(fmt.Sprintf("placement: TreeDP trace ended with k=%d b=%d at vertex %d", k, b, v))
	}
}
