package placement

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
)

// This file is the unified solver architecture: one Solver interface,
// one Options shape built from functional options, and one name-keyed
// registry every dispatcher (the tdmd facade, cmd/tdmd, cmd/figures,
// cmd/tdmdserve, internal/experiments) routes through. Before it, each
// caller hand-rolled a switch over bespoke signatures; now a solver is
// added in exactly one place and every consumer sees it.
//
// Cancellation contract (see DESIGN.md "Cancellation & anytime
// contract"): every solver takes a context.Context as its first
// parameter and honors cancellation/deadline mid-solve. Anytime
// solvers return their best feasible plan found so far with
// Result.Interrupted recording the context error; exact solvers
// additionally downgrade Result.Optimal to false. Solvers interrupted
// before any feasible plan return an error wrapping the context error.
// With a context that never fires, behavior is bit-identical to the
// pre-context solvers (all checks are non-blocking polls).

// OptionSet is a bitmask naming the option kinds a solver consumes or
// requires; validation rejects explicit options a solver would
// silently ignore.
type OptionSet uint

// The option kinds.
const (
	// OptK is the middlebox budget.
	OptK OptionSet = 1 << iota
	// OptSeed seeds randomized solvers.
	OptSeed
	// OptTree is the rooted tree view tree-only solvers need.
	OptTree
	// OptRounds caps local-search sweep rounds.
	OptRounds
	// OptStarts is the multi-start restart count.
	OptStarts
	// OptCapacity is the per-middlebox processing capacity.
	OptCapacity
)

// optionNames maps each bit to the user-facing option name, in bit
// order.
var optionNames = []struct {
	bit  OptionSet
	name string
}{
	{OptK, "k"},
	{OptSeed, "seed"},
	{OptTree, "tree"},
	{OptRounds, "rounds"},
	{OptStarts, "starts"},
	{OptCapacity, "capacity"},
}

// Names lists the option names present in the set, in declaration
// order.
func (s OptionSet) Names() []string {
	var out []string
	for _, on := range optionNames {
		if s&on.bit != 0 {
			out = append(out, on.name)
		}
	}
	return out
}

// Options is the one options shape every Solver receives. Callers
// build it with NewOptions and the With*/Fallback* functional options;
// solvers read only the fields their Traits declare they consume.
type Options struct {
	// K is the middlebox budget.
	K int
	// Seed seeds randomized solvers.
	Seed int64
	// Tree is the rooted tree view for tree-only solvers.
	Tree *graph.Tree
	// Rounds caps local-search sweep rounds (0 = solver default).
	Rounds int
	// Starts is the multi-start restart count.
	Starts int
	// Capacity is the per-box processing capacity (0 = unlimited).
	Capacity int
	// Observer receives solve lifecycle and progress events; nil
	// disables observation. Not part of the OptionSet contract: every
	// solver tolerates it, none requires it.
	Observer SolveObserver

	// explicit marks options the caller set deliberately; a solver
	// that does not consume an explicit option rejects the call
	// (ErrBadOptions) instead of silently ignoring it.
	explicit OptionSet
	// provided marks options that carry a usable value — explicit ones
	// plus ambient fallbacks a Problem supplies (tree view, default
	// seed). Requirements are checked against provided.
	provided OptionSet
}

// Option mutates an Options under construction.
type Option func(*Options)

// NewOptions applies the options to a zero Options value.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Explicit reports the explicitly-set option kinds.
func (o Options) Explicit() OptionSet { return o.explicit }

// Provided reports the option kinds carrying a usable value.
func (o Options) Provided() OptionSet { return o.provided }

func (o *Options) mark(bit OptionSet) { o.explicit |= bit; o.provided |= bit }

// WithK sets the middlebox budget.
func WithK(k int) Option {
	return func(o *Options) { o.K = k; o.mark(OptK) }
}

// WithSeed seeds randomized solvers.
func WithSeed(seed int64) Option {
	return func(o *Options) { o.Seed = seed; o.mark(OptSeed) }
}

// WithTree attaches the rooted tree view tree-only solvers need.
func WithTree(t *graph.Tree) Option {
	return func(o *Options) { o.Tree = t; o.mark(OptTree) }
}

// WithRounds caps local-search sweep rounds.
func WithRounds(n int) Option {
	return func(o *Options) { o.Rounds = n; o.mark(OptRounds) }
}

// WithStarts sets the multi-start restart count.
func WithStarts(n int) Option {
	return func(o *Options) { o.Starts = n; o.mark(OptStarts) }
}

// WithCapacity sets the per-middlebox processing capacity.
func WithCapacity(c int) Option {
	return func(o *Options) { o.Capacity = c; o.mark(OptCapacity) }
}

// WithObserver attaches a SolveObserver. Deliberately outside the
// OptionSet validation: observation is orthogonal to what a solver
// consumes.
func WithObserver(ob SolveObserver) Option {
	return func(o *Options) { o.Observer = ob }
}

// FallbackSeed provides a seed without marking it explicit: it
// satisfies a randomized solver's requirement but is not rejected by
// deterministic solvers. The tdmd facade uses it for Problem-level
// seeds.
func FallbackSeed(seed int64) Option {
	return func(o *Options) { o.Seed = seed; o.provided |= OptSeed }
}

// FallbackTree provides a tree view without marking it explicit, so
// attaching a tree to a Problem does not make general-topology solvers
// reject the call.
func FallbackTree(t *graph.Tree) Option {
	return func(o *Options) {
		if t != nil {
			o.Tree = t
			o.provided |= OptTree
		}
	}
}

// Traits declares a solver's shape: which options it consumes, which
// it requires, and how it behaves under cancellation.
type Traits struct {
	// Name keys the solver in the registry.
	Name string
	// Doc is a one-line description.
	Doc string
	// Consumes is the set of options the solver reads; any other
	// explicit option is rejected.
	Consumes OptionSet
	// Requires is the subset of Consumes that must be provided.
	Requires OptionSet
	// Anytime solvers return their best feasible plan so far on
	// cancellation (Result.Interrupted set); fail-fast solvers return
	// an error instead.
	Anytime bool
	// Exact solvers certify optimality (Result.Optimal true) when they
	// run to completion and downgrade to false when interrupted.
	Exact bool
}

// Solver is the one interface every placement algorithm is served
// through.
type Solver interface {
	// Traits describes the solver's option contract.
	Traits() Traits
	// Solve runs the algorithm. It honors ctx per the cancellation
	// contract and reads only the options its Traits consume.
	Solve(ctx context.Context, in *netsim.Instance, opts Options) (Result, error)
}

// funcSolver adapts a function to Solver.
type funcSolver struct {
	traits Traits
	fn     func(ctx context.Context, in *netsim.Instance, opts Options) (Result, error)
}

func (s funcSolver) Traits() Traits { return s.traits }
func (s funcSolver) Solve(ctx context.Context, in *netsim.Instance, opts Options) (Result, error) {
	return s.fn(ctx, in, opts)
}

// registry is the global name-keyed solver table.
var registry = struct {
	sync.RWMutex
	m map[string]Solver
}{m: map[string]Solver{}}

// Register adds a solver under its Traits().Name. Registering an empty
// name or a duplicate panics: solver sets are wired at init time and a
// collision is a programming error.
func Register(s Solver) {
	name := s.Traits().Name
	if name == "" {
		panic("placement: Register with empty solver name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic("placement: duplicate solver registration: " + name)
	}
	registry.m[name] = s
}

// Lookup returns the registered solver with the given name.
func Lookup(name string) (Solver, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.m[name]
	return s, ok
}

// Names lists every registered solver name, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.m))
	for n := range registry.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ErrBadOptions is the sentinel every option-validation failure wraps;
// callers test with errors.Is. It replaces the old behavior of
// silently ignoring options an algorithm does not consume.
var ErrBadOptions = errors.New("placement: bad solver options")

// BadOptionsError is the typed option-validation failure.
type BadOptionsError struct {
	// Solver is the registry name the options were checked against.
	Solver string
	// Reason explains the mismatch.
	Reason string
}

func (e *BadOptionsError) Error() string {
	return fmt.Sprintf("placement: %s: %s", e.Solver, e.Reason)
}

// Is makes errors.Is(err, ErrBadOptions) match.
func (e *BadOptionsError) Is(target error) bool { return target == ErrBadOptions }

func badOptions(solver, format string, args ...any) error {
	return &BadOptionsError{Solver: solver, Reason: fmt.Sprintf(format, args...)}
}

// ValidateOptions checks opts against a solver's Traits: explicit
// options the solver would ignore and missing requirements are both
// ErrBadOptions.
func ValidateOptions(t Traits, opts Options) error {
	if extra := opts.explicit &^ t.Consumes; extra != 0 {
		return badOptions(t.Name, "does not accept option(s) %s",
			strings.Join(extra.Names(), ", "))
	}
	if missing := t.Requires &^ opts.provided; missing != 0 {
		return badOptions(t.Name, "requires option(s) %s",
			strings.Join(missing.Names(), ", "))
	}
	if t.Requires&OptK != 0 && opts.K < 1 {
		return badOptions(t.Name, "requires a middlebox budget k >= 1, got %d", opts.K)
	}
	if t.Requires&OptTree != 0 && opts.Tree == nil {
		return badOptions(t.Name, "requires a rooted tree view")
	}
	return nil
}

// Solve validates opts against the named solver's traits and runs it —
// the single dispatch path behind Problem.Solve and every binary.
// With opts.Observer set it reports the run's lifecycle (start,
// outcome, duration) and threads the observer to the solver body via
// the context so phase timings and progress counts are attributed to
// the registry name being dispatched.
func Solve(ctx context.Context, name string, in *netsim.Instance, opts Options) (Result, error) {
	s, ok := Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("placement: unknown solver %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	ob := opts.Observer
	if err := ValidateOptions(s.Traits(), opts); err != nil {
		if ob != nil {
			// Paired start/done keeps the in-flight gauge balanced.
			ob.SolveStart(name)
			ob.SolveDone(name, OutcomeBadOptions, 0)
		}
		return Result{}, err
	}
	if ob == nil {
		return s.Solve(ctx, in, opts)
	}
	ob.SolveStart(name)
	start := time.Now()
	r, err := s.Solve(withScope(ctx, ob, name), in, opts)
	ob.SolveDone(name, OutcomeOf(r, err), time.Since(start))
	return r, err
}

// canceled polls the context without blocking; solvers call it at loop
// boundaries so a never-firing context costs one channel poll per
// check and changes no decisions.
func canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// interruptedErr wraps the context error for a solve cut short before
// it reached any feasible plan.
func interruptedErr(ctx context.Context) error {
	return fmt.Errorf("placement: solve interrupted before a feasible plan: %w", ctx.Err())
}

// rngFromSeed builds the deterministic stream a registry-dispatched
// randomized solver draws from.
func rngFromSeed(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
