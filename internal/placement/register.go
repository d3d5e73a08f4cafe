package placement

import (
	"context"

	"tdmd/internal/netsim"
)

// Built-in solver registrations. Every algorithm the facade, the CLIs,
// the HTTP service and the experiment harness can run is declared
// here, once; dispatchers look solvers up by name instead of switching
// on algorithm constants.

func init() {
	Register(funcSolver{
		traits: Traits{
			Name: "gtp", Doc: "budget-guarded greedy (Alg. 1, Sec. 4.2)",
			Consumes: OptK, Requires: OptK, Anytime: true,
		},
		fn: func(ctx context.Context, in *netsim.Instance, o Options) (Result, error) {
			return GTPBudget(ctx, in, o.K)
		},
	})
	Register(funcSolver{
		traits: Traits{
			Name: "gtp-lazy", Doc: "unbudgeted greedy with lazy submodular evaluation",
			Anytime: true,
		},
		fn: func(ctx context.Context, in *netsim.Instance, o Options) (Result, error) {
			return requireFeasible(ctx, GTPLazy(ctx, in))
		},
	})
	Register(funcSolver{
		traits: Traits{
			Name: "gtp-ls", Doc: "budgeted greedy refined by 1-swap local search",
			Consumes: OptK | OptRounds, Requires: OptK, Anytime: true,
		},
		fn: func(ctx context.Context, in *netsim.Instance, o Options) (Result, error) {
			return GTPWithLocalSearch(ctx, in, o.K, o.Rounds)
		},
	})
	Register(funcSolver{
		traits: Traits{
			Name: "dp", Doc: "optimal tree dynamic program (Sec. 5.1)",
			Consumes: OptK | OptTree, Requires: OptK | OptTree, Exact: true,
		},
		fn: func(ctx context.Context, in *netsim.Instance, o Options) (Result, error) {
			return TreeDP(ctx, in, o.Tree, o.K)
		},
	})
	Register(funcSolver{
		traits: Traits{
			Name: "hat", Doc: "tree merge heuristic (Alg. 2)",
			Consumes: OptK | OptTree, Requires: OptK | OptTree,
		},
		fn: func(ctx context.Context, in *netsim.Instance, o Options) (Result, error) {
			return HAT(ctx, in, o.Tree, o.K)
		},
	})
	Register(funcSolver{
		traits: Traits{
			Name: "random", Doc: "uniform random feasible deployment (evaluation baseline)",
			Consumes: OptK | OptSeed, Requires: OptK | OptSeed,
		},
		fn: func(ctx context.Context, in *netsim.Instance, o Options) (Result, error) {
			return RandomPlacement(ctx, in, o.K, rngFromSeed(o.Seed))
		},
	})
	Register(funcSolver{
		traits: Traits{
			Name: "best-effort", Doc: "static-ranking greedy (evaluation baseline)",
			Consumes: OptK, Requires: OptK,
		},
		fn: func(ctx context.Context, in *netsim.Instance, o Options) (Result, error) {
			return BestEffort(ctx, in, o.K)
		},
	})
	Register(funcSolver{
		traits: Traits{
			Name: "exhaustive", Doc: "brute-force optimum (tiny instances)",
			Consumes: OptK, Requires: OptK, Anytime: true, Exact: true,
		},
		fn: func(ctx context.Context, in *netsim.Instance, o Options) (Result, error) {
			return Exhaustive(ctx, in, o.K)
		},
	})
	Register(funcSolver{
		traits: Traits{
			Name: "min-boxes", Doc: "minimum middlebox count via greedy set cover (Sang et al.)",
		},
		fn: func(ctx context.Context, in *netsim.Instance, o Options) (Result, error) {
			return MinBoxes(ctx, in)
		},
	})
	Register(funcSolver{
		traits: Traits{
			Name: "bnb", Doc: "exact branch-and-bound with submodular pruning",
			Consumes: OptK, Requires: OptK, Anytime: true, Exact: true,
		},
		fn: func(ctx context.Context, in *netsim.Instance, o Options) (Result, error) {
			br, err := BranchAndBound(ctx, in, o.K, BnBOpts{})
			return br.Result, err
		},
	})
	Register(funcSolver{
		traits: Traits{
			Name: "capacitated", Doc: "budgeted greedy under per-box processing capacity",
			Consumes: OptK | OptCapacity, Requires: OptK,
		},
		fn: func(ctx context.Context, in *netsim.Instance, o Options) (Result, error) {
			return GTPCapacitated(ctx, in, o.K, o.Capacity)
		},
	})
	Register(funcSolver{
		traits: Traits{
			Name: "multistart-ls", Doc: "greedy + 1-swap from multiple seeds",
			Consumes: OptK | OptSeed | OptStarts | OptRounds,
			Requires: OptK | OptSeed | OptStarts, Anytime: true,
		},
		fn: func(ctx context.Context, in *netsim.Instance, o Options) (Result, error) {
			return MultiStartLocalSearch(ctx, in, o.K, o.Starts, rngFromSeed(o.Seed))
		},
	})
}

// requireFeasible converts the bare-Result greedy solvers' outcome to
// the registry contract: an infeasible final plan is ErrInfeasible —
// or, when the solve was interrupted, the context error.
func requireFeasible(ctx context.Context, r Result) (Result, error) {
	if r.Feasible {
		return r, nil
	}
	if r.Interrupted != nil {
		return r, interruptedErr(ctx)
	}
	return Result{}, ErrInfeasible
}
