package placement

import (
	"context"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/traffic"
)

// OnlineGTP maintains a deployment as flows arrive and depart, the
// operational mode the paper's static formulation leaves as future
// work. The policy is conservative:
//
//   - an arriving flow already covered by the current plan changes
//     nothing;
//   - an uncovered arrival triggers one greedy pick (the best vertex
//     for the *current* workload) while budget remains;
//   - when the budget is exhausted and an arrival is uncovered, the
//     whole plan is recomputed with GTPBudget (a "replan", counted so
//     callers can watch churn);
//   - departures never move boxes (they only free future headroom).
//
// Middleboxes are stateful in practice, so minimizing plan churn
// matters as much as bandwidth; Replans and Moves quantify that.
type OnlineGTP struct {
	g      *graph.Graph
	lambda float64
	k      int

	flows  []traffic.Flow
	nextID int
	plan   netsim.Plan

	// Replans counts full plan recomputations; Moves counts total
	// vertex changes across them.
	Replans int
	Moves   int
}

// NewOnlineGTP creates an empty online placement with budget k.
func NewOnlineGTP(g *graph.Graph, lambda float64, k int) (*OnlineGTP, error) {
	if err := validateBudget(k); err != nil {
		return nil, err
	}
	if err := netsim.CheckLambda(lambda); err != nil {
		return nil, err
	}
	return &OnlineGTP{g: g, lambda: lambda, k: k, plan: netsim.NewPlan()}, nil
}

// Plan returns a copy of the current deployment.
func (o *OnlineGTP) Plan() netsim.Plan { return o.plan.Clone() }

// Flows returns the live workload (owned by the controller).
func (o *OnlineGTP) Flows() []traffic.Flow { return o.flows }

// instance rebuilds the model index for the current workload.
func (o *OnlineGTP) instance() (*netsim.Instance, error) {
	return netsim.New(o.g, o.flows, o.lambda)
}

// Bandwidth returns the current total consumption.
func (o *OnlineGTP) Bandwidth() (float64, error) {
	in, err := o.instance()
	if err != nil {
		return 0, err
	}
	return in.TotalBandwidth(o.plan), nil
}

// AddFlow admits a flow (the controller assigns its ID) and adapts the
// plan as needed. It returns the assigned ID, or ErrInfeasible when
// even a full replan cannot cover the new workload within budget — in
// that case the flow is not admitted and the previous plan stands.
// AddFlow honors ctx for the greedy pick and any full replan; an
// interrupted admission leaves the controller unchanged and the flow
// unadmitted.
func (o *OnlineGTP) AddFlow(ctx context.Context, f traffic.Flow) (int, error) {
	f.ID = o.nextID
	candidate := append(o.flows, f)
	in, err := netsim.New(o.g, candidate, o.lambda)
	if err != nil {
		return 0, err
	}
	covered := false
	for _, v := range f.Path {
		if o.plan.Has(v) {
			covered = true
			break
		}
	}
	switch {
	case covered:
		// Nothing to do.
	case o.plan.Size() < o.k:
		// One greedy pick against the updated workload, scored on a
		// fresh incremental state for the candidate instance.
		if canceled(ctx) {
			return 0, interruptedErr(ctx)
		}
		st := netsim.NewState(in, o.plan)
		v, ok := bestCandidate(st, nil)
		if !ok || !improves(st, v) {
			return 0, ErrInfeasible
		}
		o.plan.Add(v)
	default:
		// Budget exhausted: full replan.
		res, err := GTPBudget(ctx, in, o.k)
		if err != nil || res.Interrupted != nil {
			if canceled(ctx) {
				return 0, interruptedErr(ctx)
			}
			return 0, ErrInfeasible
		}
		o.Replans++
		o.Moves += planDiff(o.plan, res.Plan)
		o.plan = res.Plan
	}
	o.flows = candidate
	o.nextID++
	return f.ID, nil
}

// RemoveFlow retires a flow by ID; the plan is left untouched.
func (o *OnlineGTP) RemoveFlow(id int) bool {
	for i, f := range o.flows {
		if f.ID == id {
			o.flows = append(o.flows[:i], o.flows[i+1:]...)
			return true
		}
	}
	return false
}

// Compact re-optimizes the plan for the current workload (e.g. after a
// departure wave) and reports how many boxes moved. Operators call it
// in maintenance windows rather than on every event.
func (o *OnlineGTP) Compact(ctx context.Context) (moved int, err error) {
	in, err := o.instance()
	if err != nil {
		return 0, err
	}
	if len(o.flows) == 0 {
		moved = o.plan.Size()
		o.plan = netsim.NewPlan()
		return moved, nil
	}
	res, err := GTPBudget(ctx, in, o.k)
	if err != nil {
		return 0, err
	}
	if res.Interrupted != nil {
		// Never adopt a cut-short replan: compaction is an optimization,
		// not a correctness need, so keep the standing plan.
		return 0, interruptedErr(ctx)
	}
	moved = planDiff(o.plan, res.Plan)
	o.plan = res.Plan
	return moved, nil
}

// planDiff counts vertices present in exactly one of the plans.
func planDiff(a, b netsim.Plan) int {
	d := 0
	for _, v := range a.Vertices() {
		if !b.Has(v) {
			d++
		}
	}
	for _, v := range b.Vertices() {
		if !a.Has(v) {
			d++
		}
	}
	return d
}
