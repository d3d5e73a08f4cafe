package placement

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// The cancellation contract (DESIGN.md "Cancellation & anytime
// contract"), exercised end to end: anytime solvers return their best
// feasible plan so far with Result.Interrupted set, exact solvers
// downgrade Optimal, fail-fast solvers return an error wrapping the
// context error, and a context that never fires changes nothing.

// cancelledCtx returns a context that is already cancelled.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// denseInstance builds a general instance big enough that exact
// search cannot finish instantly but small enough for the test suite.
func denseInstance(t *testing.T, n int, seed int64) *netsim.Instance {
	t.Helper()
	g := topology.GeneralRandom(n, 0.8, seed)
	flows := traffic.GeneralFlows(g, []graph.NodeID{0, 1}, traffic.GenConfig{
		Density: 0.8, Seed: seed + 1, MaxFlows: 80})
	if len(flows) == 0 {
		t.Fatal("generator produced no flows")
	}
	return netsim.MustNew(g, flows, 0.5)
}

func TestCancelPreCancelledFailFastSolvers(t *testing.T) {
	in := fig1Instance(t)
	tree := fig1Tree(t)
	ctx := cancelledCtx()
	cases := []struct {
		name string
		run  func() error
	}{
		{"random", func() error {
			_, err := RandomPlacement(ctx, in, 3, rand.New(rand.NewSource(1)))
			return err
		}},
		{"best-effort", func() error { _, err := BestEffort(ctx, in, 3); return err }},
		{"min-boxes", func() error { _, err := MinBoxes(ctx, in); return err }},
		{"dp", func() error { _, err := TreeDP(ctx, in, tree, 3); return err }},
		{"hat", func() error { _, err := HAT(ctx, in, tree, 3); return err }},
		{"capacitated", func() error { _, err := GTPCapacitated(ctx, in, 3, 4); return err }},
		{"multistart-ls", func() error {
			_, err := MultiStartLocalSearch(ctx, in, 3, 4, rand.New(rand.NewSource(1)))
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil {
			t.Fatalf("%s: pre-cancelled context, want error", tc.name)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v does not wrap context.Canceled", tc.name, err)
		}
	}
}

func TestCancelPreCancelledAnytimeSolversReturnEmptyBest(t *testing.T) {
	in := fig1Instance(t)
	ctx := cancelledCtx()
	// The unbudgeted greedy never placed a box, so its "best so far"
	// is the empty plan, tagged interrupted.
	r := GTP(ctx, in)
	if r.Interrupted == nil || r.Plan.Size() != 0 || r.Feasible {
		t.Fatalf("GTP pre-cancelled: %+v", r)
	}
	r = GTPLazy(ctx, in)
	if r.Interrupted == nil || r.Plan.Size() != 0 {
		t.Fatalf("GTPLazy pre-cancelled: %+v", r)
	}
	// Budget-guarded greedy was interrupted before coverage: error
	// wrapping the context error.
	if _, err := GTPBudget(ctx, in, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("GTPBudget pre-cancelled: %v", err)
	}
	// Exact solvers with no incumbent yet: same.
	if _, err := Exhaustive(ctx, in, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("Exhaustive pre-cancelled: %v", err)
	}
	if _, err := BranchAndBound(ctx, in, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("BranchAndBound pre-cancelled: %v", err)
	}
}

func TestCancelLocalSearchReturnsSeedUnchanged(t *testing.T) {
	in := fig1Instance(t)
	seed, err := GTPBudget(context.Background(), in, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := LocalSearch(cancelledCtx(), in, seed.Plan, 0)
	if r.Interrupted == nil {
		t.Fatal("cancelled local search must report Interrupted")
	}
	if !r.Feasible || !planEquals(r.Plan, seed.Plan.Vertices()...) {
		t.Fatalf("cancelled local search must return the seed untouched: %+v", r)
	}
}

func TestCancelExhaustiveMidSolveKeepsIncumbent(t *testing.T) {
	in := denseInstance(t, 20, 9)
	// Uninterrupted baseline for comparison.
	full, err := Exhaustive(context.Background(), in, 6)
	if err != nil {
		t.Skip("instance infeasible at k=6; nothing to assert")
	}
	if !full.Optimal {
		t.Fatalf("uninterrupted exhaustive must certify: %+v", full)
	}
	// A deadline that expires mid-enumeration. The greedy incumbent
	// appears within the first few thousand subsets, so either the
	// solve finished under the deadline (fine) or we get a feasible
	// best-so-far that is no better than the optimum.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	r, err := Exhaustive(ctx, in, 6)
	if err != nil {
		// Interrupted before the first feasible subset: legal outcome.
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error %v does not wrap the deadline", err)
		}
		return
	}
	if r.Interrupted != nil {
		if r.Optimal {
			t.Fatal("interrupted exhaustive must downgrade Optimal")
		}
		if !r.Feasible {
			t.Fatal("interrupted exhaustive returned an infeasible incumbent")
		}
		if r.Bandwidth < full.Bandwidth-1e-9 {
			t.Fatalf("incumbent %v beats the certified optimum %v", r.Bandwidth, full.Bandwidth)
		}
	} else if !r.Optimal {
		t.Fatal("uninterrupted run must certify")
	}
}

func TestCancelBranchAndBoundDeadlineDowngradesOptimal(t *testing.T) {
	in := denseInstance(t, 40, 3)
	// The caller's deadline, not the 30 s safety cap, cuts the search:
	// the greedy seed finishes well inside 150ms, the full search does
	// not.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	r, err := BranchAndBound(ctx, in, 10)
	if err != nil {
		t.Skip("no incumbent inside the deadline; nothing to assert")
	}
	if !r.Feasible {
		t.Fatal("incumbent infeasible")
	}
	if r.Optimal {
		// Finished inside the deadline after all: nothing was cut.
		if r.Interrupted != nil {
			t.Fatalf("certified result reports an interruption: %+v", r)
		}
		return
	}
	if r.Interrupted == nil {
		t.Fatal("deadline-cut search must report Interrupted")
	}
	gtp, err := GTPBudget(context.Background(), in, 10)
	if err == nil && r.Bandwidth > gtp.Bandwidth+1e-9 {
		t.Fatalf("incumbent %v worse than its greedy seed %v", r.Bandwidth, gtp.Bandwidth)
	}
}

func TestCancelGTPBudgetTopUpKeepsFeasiblePlan(t *testing.T) {
	// Cancel between the coverage phase and the top-up phase is not
	// directly addressable, but a cancel during top-up must still
	// return a feasible plan with nil error. Simulate by cancelling
	// after the solve completes under a generous deadline and checking
	// the uninterrupted result is unchanged vs. Background — the
	// bit-identical half of the contract.
	in := denseInstance(t, 30, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, errA := GTPBudget(ctx, in, 10)
	b, errB := GTPBudget(context.Background(), in, 10)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("feasibility mismatch: %v vs %v", errA, errB)
	}
	if errA != nil {
		return
	}
	if a.Interrupted != nil || b.Interrupted != nil {
		t.Fatal("never-firing context must not interrupt")
	}
	if math.Abs(a.Bandwidth-b.Bandwidth) > 0 || !planEquals(a.Plan, b.Plan.Vertices()...) {
		t.Fatalf("never-firing context changed the plan: %v vs %v", a.Plan, b.Plan)
	}
}

func TestCancelOnlineAddFlowLeavesControllerUnchanged(t *testing.T) {
	in := fig1Instance(t)
	o, err := NewOnlineGTP(in.G, in.Lambda, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range in.Flows()[:2] {
		if _, err := o.AddFlow(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	before := o.Plan()
	flowsBefore := len(o.Flows())
	if _, err := o.AddFlow(cancelledCtx(), in.Flows()[2]); err == nil {
		// The fast path (already covered, or a greedy pick before the
		// first poll) may legitimately succeed; only a failed add must
		// leave state untouched.
		return
	}
	if len(o.Flows()) != flowsBefore {
		t.Fatal("failed AddFlow must not admit the flow")
	}
	if !planEquals(o.Plan(), before.Vertices()...) {
		t.Fatal("failed AddFlow must not move boxes")
	}
}

// TestCancelSolverHammer runs concurrent solves on shared instances
// while other goroutines cancel them at staggered points; run under
// -race (the tier-1 gate runs it with -count=5) it shakes out
// solve/cancel data races.
func TestCancelSolverHammer(t *testing.T) {
	in := denseInstance(t, 24, 11)
	tree := func() *graph.Tree {
		g := topology.RandomTree(24, 0, 13)
		tr, err := graph.NewTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}()
	treeFlows := traffic.MergeSameSource(traffic.TreeFlows(tree, traffic.GenConfig{
		Density: 0.6, LinkCapacity: 40, Seed: 17}))
	treeIn := netsim.MustNew(tree.G, treeFlows, 0.5)
	delays := []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond}
	var wg sync.WaitGroup
	for i, d := range delays {
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			go func() { time.Sleep(d); cancel() }()
			r := GTPLazy(ctx, in)
			if r.Interrupted == nil && !r.Feasible {
				t.Errorf("hammer %d: uninterrupted GTPLazy infeasible", i)
			}
			ctx2, cancel2 := context.WithCancel(context.Background())
			go func() { time.Sleep(d); cancel2() }()
			if r, err := Exhaustive(ctx2, in, 4); err == nil {
				if r.Interrupted != nil && r.Optimal {
					t.Errorf("hammer %d: interrupted Exhaustive claims optimality", i)
				}
			}
			ctx3, cancel3 := context.WithCancel(context.Background())
			go func() { time.Sleep(d); cancel3() }()
			if r, err := TreeDP(ctx3, treeIn, tree, 6); err == nil {
				if !r.Feasible {
					t.Errorf("hammer %d: completed TreeDP infeasible", i)
				}
			} else if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrInfeasible) {
				t.Errorf("hammer %d: TreeDP unexpected error %v", i, err)
			}
		}(i, d)
	}
	wg.Wait()
}

// fig1Tree builds the rooted tree view of the Fig. 1 instance for the
// tree-only cancellation cases.
func fig1Tree(t *testing.T) *graph.Tree {
	t.Helper()
	in := fig1Instance(t)
	tr, err := graph.NewTree(in.G, 0)
	if err != nil {
		t.Skipf("fig1 graph is not a tree from vertex 0: %v", err)
	}
	return tr
}
