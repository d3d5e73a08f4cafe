package tdmd

import (
	"context"
	"io"
	"math/rand"

	"tdmd/internal/netsim"
	"tdmd/internal/placement"
	"tdmd/internal/resilience"
	"tdmd/internal/sim"
	"tdmd/internal/traffic"
)

// Advanced API: the rate-scaled approximate DP, the discrete-event
// dynamic simulator, and trace ingestion.

// ScaledDPOpts configures SolveScaledDP; see the placement package for
// the error analysis.
type ScaledDPOpts = placement.ScaledDPOpts

// SolveScaledDP runs the rate-scaled approximate tree DP: rates are
// divided by a scaling factor, the scaled instance is solved exactly,
// and the plan is scored on the true rates. Returns the scale used.
// This is the practical answer to the pseudo-polynomial blow-up the
// paper discusses after Theorem 5.
func (p *Problem) SolveScaledDP(ctx context.Context, k int, opts ScaledDPOpts) (Result, int, error) {
	if p.tree == nil {
		return Result{}, 0, errNeedsTree(AlgDP)
	}
	return placement.ScaledTreeDP(ctx, p.inst, p.tree, k, opts)
}

// SimConfig configures a dynamic simulation run.
type SimConfig = sim.Config

// SimMetrics is the outcome of a dynamic simulation.
type SimMetrics = sim.Metrics

// Simulate plays dynamic traffic (Poisson arrivals, exponential
// holding times) against a deployment plan and reports time-averaged
// and peak loads. Static snapshots (InitialFlows only) reproduce
// Evaluate's bandwidth exactly.
func (p *Problem) Simulate(plan Plan, cfg SimConfig) (SimMetrics, error) {
	return sim.Run(p.inst.G, plan, p.inst.Lambda, cfg)
}

// SolveCapacitated places middleboxes when each box can process at
// most `capacity` total initial rate (the paper assumes unlimited
// capacity; this is the capacitated extension, scored under the
// first-fit-decreasing assignment of netsim's capacitated model).
// capacity <= 0 means unlimited.
func (p *Problem) SolveCapacitated(ctx context.Context, k, capacity int) (Result, error) {
	return placement.GTPCapacitated(ctx, p.inst, k, capacity)
}

// MultiStartLocalSearch runs the greedy + 1-swap pipeline from several
// seeds (greedy plus starts−1 random restarts) and returns the best
// local optimum; the quality/time knob beyond AlgGTPLS.
func (p *Problem) MultiStartLocalSearch(ctx context.Context, k, starts int) (Result, error) {
	return placement.MultiStartLocalSearch(ctx, p.inst, k, starts, rand.New(rand.NewSource(p.seed)))
}

// FailureImpact quantifies the loss of one deployed middlebox.
type FailureImpact = resilience.Impact

// FailureRanking lists every deployed middlebox's failure impact, most
// critical first.
func (p *Problem) FailureRanking(plan Plan) []FailureImpact {
	return resilience.Ranking(p.inst, plan)
}

// Repair replaces a failed middlebox within the budget k, keeping
// surviving boxes in place and never reusing the failed vertex.
func (p *Problem) Repair(ctx context.Context, plan Plan, failed NodeID, k int) (Result, error) {
	return resilience.Repair(ctx, p.inst, plan, failed, k)
}

// DeploymentReport summarizes a plan's behaviour (per-box loads,
// processing depths, unserved flows).
type DeploymentReport = netsim.Report

// Report builds the deployment report for a plan.
func (p *Problem) Report(plan Plan) DeploymentReport { return p.inst.Report(plan) }

// ReadTrace parses "src,dst,rate" CSV flow records against g, routing
// each over a minimum-hop path.
func ReadTrace(r io.Reader, g *Graph) ([]Flow, error) { return traffic.ReadTrace(r, g) }

// WriteTrace emits flows in ReadTrace's CSV format.
func WriteTrace(w io.Writer, g *Graph, flows []Flow) error { return traffic.WriteTrace(w, g, flows) }

func errNeedsTree(alg Algorithm) error {
	return &apiError{"tdmd: " + string(alg) + " requires WithTree"}
}

type apiError struct{ msg string }

func (e *apiError) Error() string { return e.msg }

// State is the incremental allocation engine the solvers run on: it
// maintains each flow's serving vertex, the total bandwidth, and
// per-vertex marginal decrements under AddBox/RemoveBox plan
// mutations, touching only the path classes (flows grouped by
// identical path) through the mutated vertex. Use
// it to build custom search procedures (the built-in greedy, local
// search, and branch-and-bound all do). The Problem's instance stays
// read-only and shareable; a State is single-goroutine for mutations.
type State = netsim.State

// NewState builds an incremental evaluation state for this problem,
// starting from the given plan (the plan is cloned). With invariants
// enabled every mutation cross-checks against the full model
// recomputation.
func (p *Problem) NewState(plan Plan) *State { return netsim.NewState(p.inst, plan) }

// BnBOpts configures SolveExact's branch-and-bound.
type BnBOpts = placement.BnBOpts

// ExactResult is SolveExact's outcome, including whether the search
// exhausted the space (a certified optimum) and how many nodes it
// explored.
type ExactResult = placement.BnBResult

// SolveExact runs branch-and-bound with the submodular pruning bound:
// exact optima well beyond AlgExhaustive's reach (the paper's
// evaluation sizes solve in milliseconds). Requires λ ≤ 1.
func (p *Problem) SolveExact(ctx context.Context, k int, opts BnBOpts) (ExactResult, error) {
	return placement.BranchAndBound(ctx, p.inst, k, opts)
}
