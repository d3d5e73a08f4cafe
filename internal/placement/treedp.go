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
// Those tables and tracebacks are carved from one arena allocated at
// exactly the run's cells, and the merge scratch is allocated once at
// the size of the widest merge, so nothing regrows during a run.
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
// preconditions of Sec. 5. Flows on one path share its class, so each
// class path is checked once, hop by hop against the tree's parents;
// classes are numbered in flow order, so the first failing class names
// the first failing flow.
func checkTreeWorkload(in *netsim.Instance, t *graph.Tree) error {
	if in.Lambda > 1 {
		return fmt.Errorf("placement: tree algorithms require a traffic-diminishing middlebox (λ ≤ 1), got λ=%v", in.Lambda)
	}
	for c := range in.NumClasses() {
		f := in.ClassFlow(c)
		if err := treePathError(t, f, in.FlowPath(f)); err != nil {
			return err
		}
	}
	return nil
}

// treePathError reports why flow f's path does not run from its source
// up the tree to the root, or nil if it does.
func treePathError(t *graph.Tree, f int, path graph.Path) error {
	if dst := path[len(path)-1]; dst != t.Root {
		return fmt.Errorf("placement: flow %d ends at %d, not the root %d", f, dst, t.Root)
	}
	if len(path) != t.Depth(path[0])+1 {
		return fmt.Errorf("placement: flow %d does not follow its tree path", f)
	}
	for i := 1; i < len(path); i++ {
		if path[i] != t.Parent(path[i-1]) {
			return fmt.Errorf("placement: flow %d does not follow its tree path", f)
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

// reset makes tb an empty (maxK+1)×(maxB+1) table over vals and
// choice, which must be zero (fresh memory is): every state +Inf.
func (tb *dpTable) reset(maxK, maxB int, vals []float64, choice []dpChoice) {
	*tb = dpTable{maxK: maxK, maxB: maxB, vals: vals, choice: choice}
	for i := range vals {
		vals[i] = math.Inf(1)
	}
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
	tables  []dpTable // by vertex; memo[v] is &tables[v] once v is solved
	// free is the part of the run's arena not yet carved into tables
	// and tracebacks.
	free dpArena
	// Merge scratch shared by every vertex: the children accumulator's
	// values ping-pong between acc[0] and acc[1], and finite lists the
	// accumulator's reachable states. Each holds the widest merge.
	acc    [2][]float64
	finite []dpState
}

// dpArena is the memory of a run's tables and tracebacks: the cells of
// every vertex table, and one traceback per child merge with its cells.
type dpArena struct {
	vals   []float64    // vertex-table cells
	choice []dpChoice   // vertex-table cells
	backs  []mergeBack  // one per child merge
	backOf []*mergeBack // each vertex's merges, in child order
	splits []int32      // two per merge-traceback cell
}

// dpState is one reachable accumulator state: k boxes at value v. off
// is its index in the merged table when the child contributes (0, 0).
type dpState struct {
	k, off int
	v      float64
}

// newDPRun sizes a TreeDP run and refuses, with ErrBadOptions, one
// whose tables would exceed maxDPCells; nothing large is allocated
// before the check. Then it allocates the run's arena and merge
// scratch, each once and at exactly the size the run needs.
func newDPRun(in *netsim.Instance, t *graph.Tree, k int) (*dpRun, error) {
	n := in.G.NumNodes()
	d := &dpRun{
		in: in, t: t, budget: k,
		ownRate: make([]int, n),
		subRate: make([]int, n),
		subSize: make([]int, n),
		memo:    make([]*dpTable, n),
	}
	for i := range in.NumFlows() {
		d.ownRate[in.FlowPath(i)[0]] += in.FlowRate(i)
	}
	for _, v := range t.PostOrder() {
		d.subRate[v] = d.ownRate[v]
		d.subSize[v] = 1
		for _, c := range t.Children(v) {
			d.subRate[v] += d.subRate[c]
			d.subSize[v] += d.subSize[c]
		}
	}
	tables, merges, widest := d.extent()
	if cells := addCells(tables, merges, 1); cells > maxDPCells {
		return nil, fmt.Errorf("placement: tree DP needs %d table cells, above the cap of %d (its size grows with the total flow rate): %w",
			cells, maxDPCells, ErrBadOptions)
	}
	d.allocate(tables, merges, widest)
	return d, nil
}

// allocate gives the run its tables, an arena of tables table cells
// and merges traceback cells, and merge scratch for widest states.
func (d *dpRun) allocate(tables, merges, widest int) {
	n := len(d.memo)
	d.tables = make([]dpTable, n)
	d.free = dpArena{
		vals:   make([]float64, tables),
		choice: make([]dpChoice, tables),
		backs:  make([]mergeBack, n),
		backOf: make([]*mergeBack, n),
		splits: make([]int32, 2*merges),
	}
	d.acc = [2][]float64{make([]float64, widest), make([]float64, widest)}
	d.finite = make([]dpState, 0, widest)
}

// carve takes the next n elements off the front of *free. newDPRun
// sized the arena for the whole run, so it never runs short.
func carve[T any](free *[]T, n int) []T {
	s := (*free)[:n:n]
	*free = (*free)[n:]
	return s
}

// extent counts the run's vertex-table cells and merge-traceback cells
// and the cells of its widest merge, each saturating at math.MaxInt.
func (d *dpRun) extent() (tables, merges, widest int) {
	widest = 1 // the empty accumulator every merge starts from
	for _, v := range d.t.PostOrder() {
		tables = addCells(tables, d.capK(v)+1, d.subRate[v]+1)
		k, b := 0, 0
		for _, c := range d.t.Children(v) {
			k = min(k+d.capK(c), d.budget)
			b += d.subRate[c]
			merges = addCells(merges, k+1, b+1)
			widest = max(widest, addCells(0, k+1, b+1))
		}
	}
	return tables, merges, widest
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
	acc := d.acc[side][:1]
	acc[0] = 0
	backs := carve(&d.free.backOf, len(children))
	for j, c := range children {
		ct := d.memo[c] // children are solved before their parent
		if ct == nil {
			panic("placement: TreeDP child table missing (scheduling bug)")
		}
		sc := d.subRate[c]
		newK := min(accK+ct.maxK, d.budget)
		newB := accB + sc
		n := (newK + 1) * (newB + 1)
		finite := d.finite[:0] // never regrows: sized to the widest merge
		for ka := 0; ka <= accK; ka++ {
			for ba, val := range acc[ka*(accB+1) : (ka+1)*(accB+1)] {
				if !math.IsInf(val, 1) {
					finite = append(finite, dpState{k: ka, off: ka*(newB+1) + ba, v: val})
				}
			}
		}
		side ^= 1
		merged := d.acc[side][:n]
		for i := range merged {
			merged[i] = math.Inf(1)
		}
		splits := carve(&d.free.splits, 2*n)
		for i := range splits {
			splits[i] = -1
		}
		back := &carve(&d.free.backs, 1)[0]
		*back = mergeBack{maxB: newB, kc: splits[:n:n], bc: splits[n:]}
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
		backs[j] = back
	}
	// Assemble the vertex table from the accumulator.
	maxK := d.capK(v)
	sv := d.subRate[v]
	cells := (maxK + 1) * (sv + 1)
	tab := &d.tables[v]
	tab.reset(maxK, sv, carve(&d.free.vals, cells), carve(&d.free.choice, cells))
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
