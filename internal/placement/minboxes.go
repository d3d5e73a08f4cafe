package placement

import (
	"context"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
)

// MinBoxes answers the related-work objective of Sang et al. [28]
// (which the paper positions against): the minimum number of
// middleboxes that fully serves every flow, ignoring bandwidth. It
// runs greedy set cover — within H(n) of the optimal count — on the
// incremental state, with the budget guard's step (mostCovering: the
// vertex serving the most unserved flows, ties to the lowest id), and
// scores the resulting plan under the TDMD bandwidth model so the two
// objectives can be compared directly: the count-minimal deployment
// is typically far from bandwidth-minimal for the same k (tests
// quantify the gap).
// MinBoxes is fail-fast under cancellation: the greedy cover is one
// indivisible pass, so it checks the context once at entry.
func MinBoxes(ctx context.Context, in *netsim.Instance) (Result, error) {
	if canceled(ctx) {
		return Result{}, interruptedErr(ctx)
	}
	st := netsim.NewState(in, netsim.NewPlan())
	for !st.Feasible() {
		v := mostCovering(st, nil)
		if v == graph.Invalid {
			return Result{}, ErrInfeasible
		}
		st.AddBox(v)
	}
	observing(ctx).count("deployments", int64(st.Size()))
	return finish(in, st.Plan()), nil
}
