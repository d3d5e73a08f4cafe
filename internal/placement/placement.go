// Package placement implements the paper's middlebox placement
// algorithms: GTP for general topologies (Alg. 1, with lazy and
// budget-constrained variants), the optimal tree dynamic program
// (Sec. 5.1), the HAT merge heuristic (Alg. 2), the Random and
// Best-effort baselines of the evaluation, and an exhaustive solver
// used by tests to certify optimality.
package placement

import (
	"errors"
	"fmt"

	"tdmd/internal/invariant"
	"tdmd/internal/netsim"
	"tdmd/internal/stats"
)

// Result is the outcome of a placement algorithm.
type Result struct {
	// Plan is the set of vertices chosen to host middleboxes.
	Plan netsim.Plan
	// Bandwidth is the total consumption b(P) under the optimal
	// (nearest-to-source) allocation, recomputed by netsim so every
	// algorithm is scored by the same authoritative model.
	Bandwidth float64
	// Feasible reports whether every flow is served by the plan.
	Feasible bool
	// Optimal is true when an exact solver (exhaustive, branch-and-
	// bound, tree DP) exhausted its search space and certified the
	// plan as a global optimum. Heuristics never set it; interrupted
	// exact solvers downgrade it to false.
	Optimal bool
	// Interrupted carries the context error when the solve was cut
	// short by cancellation or deadline: the plan is the best answer
	// found before the interruption (best-so-far for anytime solvers),
	// not necessarily what an uninterrupted run would return. It is
	// nil for solves that ran to completion.
	Interrupted error
}

// ErrInfeasible is returned when an algorithm cannot produce a plan
// serving all flows within the middlebox budget.
var ErrInfeasible = errors.New("placement: no feasible deployment within budget")

// finish scores a plan and packages it as a Result. With invariants
// enabled it cross-checks the closed-form objective (Eq. 1) against
// the hop-by-hop link-load recomputation, so every algorithm's score
// is validated by an independent model on every solve.
func finish(in *netsim.Instance, p netsim.Plan) Result {
	r := Result{Plan: p}
	r.Bandwidth, r.Feasible = in.Evaluate(p)
	if invariant.Enabled {
		sum := netsim.SumLoads(in.LinkLoads(p))
		invariant.Assert(stats.ApproxEqual(sum, r.Bandwidth, 1e-9),
			"placement: closed-form bandwidth %v disagrees with link-load recomputation %v for plan %v",
			r.Bandwidth, sum, p)
	}
	return r
}

// finishBudget is finish plus the budget invariant |P| ≤ k that every
// budgeted solver promises.
func finishBudget(in *netsim.Instance, p netsim.Plan, k int) Result {
	if invariant.Enabled {
		invariant.Assert(p.Size() <= k, "placement: plan %v exceeds budget %d", p, k)
	}
	return finish(in, p)
}

// feasibleAlloc reports whether every flow is served. The State-driven
// solvers track feasibility incrementally; this remains for the
// capacitated variant, whose first-fit allocation has no incremental
// form.
func feasibleAlloc(alloc netsim.Allocation) bool {
	for _, v := range alloc {
		if v == netsim.Unserved {
			return false
		}
	}
	return true
}

// validateBudget rejects non-positive budgets, which can never serve a
// non-empty workload.
func validateBudget(k int) error {
	if k < 1 {
		return fmt.Errorf("placement: middlebox budget %d < 1: %w", k, ErrInfeasible)
	}
	return nil
}
