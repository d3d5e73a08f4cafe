// Package tdmd is the public API of this repository: a library for
// Traffic-Diminishing Middlebox Deployment (TDMD), reproducing
// "Optimizing Flow Bandwidth Consumption with Traffic-diminishing
// Middlebox Placement" (Chen, Wu, Ji — ICPP 2020).
//
// A TDMD problem places at most k copies of one middlebox type with
// traffic-changing ratio λ ∈ [0, 1] on the vertices of a network so
// that every flow is processed exactly once, minimizing the total
// bandwidth consumed by the flows across all links.
//
// The package re-exports the underlying model types as aliases and
// wires the paper's algorithms behind a single Solve call:
//
//	g := tdmd.NewGraph()
//	... build topology and flows ...
//	p, err := tdmd.NewProblem(g, flows, 0.5)
//	res, err := p.Solve(ctx, tdmd.AlgGTP, 10)
//	fmt.Println(res.Plan, res.Bandwidth)
//
// Every Solve takes a context.Context: cancel it (or give it a
// deadline) and the solver stops at its next loop boundary. Anytime
// algorithms return their best feasible plan so far with
// Result.Interrupted set; exact ones additionally downgrade
// Result.Optimal to false. A context that never fires costs a few
// channel polls and changes nothing.
//
// Tree-only algorithms (AlgDP, AlgHAT) additionally need the rooted
// tree view, attached with Problem.WithTree.
package tdmd

import (
	"context"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/placement"
	"tdmd/internal/traffic"
)

// Re-exported model types. Aliases keep the internal packages as the
// single source of truth while letting API users name the types.
type (
	// Graph is a directed network of switches and links.
	Graph = graph.Graph
	// NodeID identifies a vertex of a Graph.
	NodeID = graph.NodeID
	// Path is an ordered vertex walk (a flow's route).
	Path = graph.Path
	// Tree is a rooted-tree view of a Graph, required by the tree
	// algorithms.
	Tree = graph.Tree
	// Flow is an unsplittable flow with a fixed path and integral rate.
	Flow = traffic.Flow
	// Plan is a middlebox deployment (the set of hosting vertices).
	Plan = netsim.Plan
	// Instance is a validated, indexed problem instance.
	Instance = netsim.Instance
	// Result is a solved placement: plan, total bandwidth, feasibility.
	Result = placement.Result
	// Allocation maps each flow to its serving vertex.
	Allocation = netsim.Allocation
)

// NewGraph returns an empty network.
func NewGraph() *Graph { return graph.New() }

// NewTree interprets g as a tree rooted at root.
func NewTree(g *Graph, root NodeID) (*Tree, error) { return graph.NewTree(g, root) }

// NewPlan builds a deployment containing the given vertices.
func NewPlan(vs ...NodeID) Plan { return netsim.NewPlan(vs...) }

// Unserved marks a flow with no middlebox on its path.
const Unserved = netsim.Unserved

// ErrInfeasible is returned when no plan within budget serves all
// flows (or when the conservative greedy guard cannot certify one).
var ErrInfeasible = placement.ErrInfeasible

// ErrBadOptions is the sentinel for solver/option mismatches: an
// explicit option the algorithm does not consume (a budget for
// AlgGTPLazy, a seed for AlgDP) or a missing requirement (no seed for
// AlgRandom, no tree for AlgDP). Test with errors.Is. Previously such
// options were silently ignored.
var ErrBadOptions = placement.ErrBadOptions

// SolveOption tunes a single Solve call beyond the budget: its seed,
// a box capacity, or an observer.
type SolveOption func(*placement.Options)

// WithCapacity sets AlgCapacitated's per-middlebox processing capacity:
// the most total initial rate one box may serve (0 = unlimited).
func WithCapacity(c int) SolveOption {
	return func(o *placement.Options) { o.Capacity = c }
}

// WithSolveSeed seeds this one Solve call's randomized algorithm,
// overriding the Problem seed.
func WithSolveSeed(seed int64) SolveOption {
	return func(o *placement.Options) { o.Seed = &seed }
}

// Algorithm names a placement strategy.
type Algorithm string

// The available algorithms.
const (
	// AlgGTP is the paper's Algorithm 1 under a budget of k, with the
	// coverage guard (Sec. 4.2); (1−1/e)-approximate in decrement.
	AlgGTP Algorithm = "gtp"
	// AlgGTPLazy is AlgGTP accelerated via lazy submodular evaluation.
	// It ignores k and deploys until all flows are served, exactly as
	// the paper's unbudgeted Alg. 1 does.
	AlgGTPLazy Algorithm = "gtp-lazy"
	// AlgDP is the optimal tree dynamic program (Sec. 5.1). Tree only.
	AlgDP Algorithm = "dp"
	// AlgHAT is the tree merge heuristic (Alg. 2). Tree only.
	AlgHAT Algorithm = "hat"
	// AlgRandom is the evaluation's random baseline.
	AlgRandom Algorithm = "random"
	// AlgBestEffort is the evaluation's static-ranking greedy baseline.
	AlgBestEffort Algorithm = "best-effort"
	// AlgGTPLS is AlgGTP followed by a 1-swap local-search pass; never
	// worse than AlgGTP, at polynomial extra cost.
	AlgGTPLS Algorithm = "gtp-ls"
	// AlgExhaustive is the brute-force optimum (tiny instances only).
	AlgExhaustive Algorithm = "exhaustive"
	// AlgMinBoxes minimizes the middlebox COUNT (the objective of Sang
	// et al., which the paper compares against) via greedy set cover,
	// ignoring k; bandwidth is then scored under the TDMD model.
	AlgMinBoxes Algorithm = "min-boxes"
	// AlgCapacitated is AlgGTP's greedy when each box can serve at most
	// WithCapacity total initial rate (the paper assumes unlimited
	// capacity), scored under netsim's first-fit-decreasing assignment.
	AlgCapacitated Algorithm = "capacitated"
	// AlgMultiStartLS runs the greedy + 1-swap pipeline from the greedy
	// plan and a fixed number of seeded random restarts and keeps the
	// best local optimum. Needs a seed.
	AlgMultiStartLS Algorithm = "multistart-ls"
	// AlgBnB is the exact branch-and-bound with the submodular pruning
	// bound: certified optima well beyond AlgExhaustive's reach.
	// Requires λ ≤ 1; a search cut short returns its incumbent with
	// Result.Optimal false.
	AlgBnB Algorithm = "bnb"
)

// Algorithms lists the algorithms cmd/tdmd -compare runs, tree-only
// ones included. AlgCapacitated and AlgBnB are not in it; Solve
// reaches them like any other.
func Algorithms() []Algorithm {
	return []Algorithm{AlgGTP, AlgGTPLazy, AlgGTPLS, AlgMultiStartLS, AlgDP, AlgHAT, AlgRandom, AlgBestEffort, AlgExhaustive, AlgMinBoxes}
}

// traits returns the registry traits for a (zero Traits for unknown
// names).
func (a Algorithm) traits() placement.Traits {
	if s, ok := placement.Lookup(string(a)); ok {
		return s.Traits()
	}
	return placement.Traits{}
}

// NeedsTree reports whether a requires Problem.WithTree.
func (a Algorithm) NeedsTree() bool { return a.traits().Requires&placement.OptTree != 0 }

// Budgeted reports whether a consumes the middlebox budget k; passing
// a non-zero k to a non-budgeted algorithm is ErrBadOptions.
func (a Algorithm) Budgeted() bool { return a.traits().Consumes&placement.OptK != 0 }

// NeedsSeed reports whether a is randomized and requires a seed
// (Problem.WithSeed or WithSolveSeed).
func (a Algorithm) NeedsSeed() bool { return a.traits().Requires&placement.OptSeed != 0 }

// Doc is the registry's one-line description of the algorithm.
func (a Algorithm) Doc() string { return a.traits().Doc }

// Problem bundles an instance with the optional tree view and solver
// options.
type Problem struct {
	inst    *Instance
	tree    *Tree
	seed    int64
	seedSet bool
}

// NewProblem validates the network, flows and ratio and returns a
// solvable problem. Validation errors name a flow by its ID; the
// instance copies the flows and numbers them by position.
func NewProblem(g *Graph, flows []Flow, lambda float64) (*Problem, error) {
	inst, err := netsim.New(g, flows, lambda)
	if err != nil {
		return nil, err
	}
	return &Problem{inst: inst}, nil
}

// Instance exposes the validated instance for direct model queries
// (allocation, link loads, decrement, ...).
func (p *Problem) Instance() *Instance { return p.inst }

// WithTree attaches the rooted tree view required by AlgDP and AlgHAT.
// The tree must be built over the same graph.
func (p *Problem) WithTree(t *Tree) *Problem {
	p.tree = t
	return p
}

// WithSeed sets the seed used by randomized algorithms (AlgRandom).
// Randomized algorithms require a seed from here or WithSolveSeed;
// running one without either is ErrBadOptions, not a silent default.
func (p *Problem) WithSeed(seed int64) *Problem {
	p.seed = seed
	p.seedSet = true
	return p
}

// Tree returns the attached tree view, or nil.
func (p *Problem) Tree() *Tree { return p.tree }

// options assembles the one Options value a registry solver receives:
// a non-zero k is the budget, the per-call options apply next, and
// the Problem-level tree and seed fill in last, only for an algorithm
// that consumes them (so they satisfy requirements without being
// rejected by algorithms that do not).
func (p *Problem) options(alg Algorithm, k int, opts []SolveOption) placement.Options {
	// Every facade solve reports to the process metrics by default; a
	// per-call WithSolveObserver overrides it.
	o := placement.Options{K: k, Observer: placement.Metrics()}
	for _, opt := range opts {
		opt(&o)
	}
	var seed *int64
	if p.seedSet {
		seed = &p.seed
	}
	return o.Ambient(alg.traits(), p.tree, seed)
}

// Solve runs the named algorithm with a budget of k middleboxes,
// dispatching through the solver registry: validation, option
// plumbing and cancellation behave identically across the library,
// the CLIs and the HTTP service.
//
// k = 0 means "no budget" and is only valid for algorithms that do
// not consume one (AlgGTPLazy, AlgMinBoxes); a non-zero k handed to
// those is ErrBadOptions. ctx cancellation/deadline interrupts the
// solve per the package contract (see Result.Interrupted).
func (p *Problem) Solve(ctx context.Context, alg Algorithm, k int, opts ...SolveOption) (Result, error) {
	return placement.Solve(ctx, string(alg), p.inst, p.options(alg, k, opts))
}

// Evaluate scores an externally chosen plan under the model: optimal
// allocation, total bandwidth, feasibility.
func (p *Problem) Evaluate(plan Plan) Result {
	r := Result{Plan: plan}
	r.Bandwidth, r.Feasible = p.inst.Evaluate(plan)
	return r
}
