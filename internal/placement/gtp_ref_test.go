package placement

import (
	"context"
	"time"

	"tdmd/internal/netsim"
)

// GTP is the eager form of the paper's Algorithm 1: every round it
// rescans all vertices for the maximum marginal decrement d_P(v), with
// GTPLazy's tie-breaking, until every flow is served. It is the
// reference GTPLazy's plans are checked against.
func GTP(ctx context.Context, in *netsim.Instance) Result {
	// Observation is hoisted once and accumulated in locals; the
	// candidate scans below stay free of observer calls.
	sc := observing(ctx)
	coverStart := time.Now()
	var deployed int64
	defer func() {
		sc.count("deployments", deployed)
		sc.phase("cover", coverStart)
	}()
	st := netsim.NewState(in, netsim.NewPlan())
	//tdmd:hot
	for !st.Feasible() {
		if canceled(ctx) {
			r := finish(in, st.Plan())
			r.Interrupted = ctx.Err()
			return r
		}
		v, ok := bestCandidate(st, nil)
		if !ok || !improves(st, v) {
			// No vertex covers any unserved flow: cannot happen for
			// valid instances (each flow's own source qualifies), but
			// guard against pathological inputs.
			break
		}
		st.AddBox(v)
		deployed++
	}
	return finish(in, st.Plan())
}
