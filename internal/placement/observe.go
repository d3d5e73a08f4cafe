package placement

import (
	"context"
	"errors"
	"sync"
	"time"

	"tdmd/internal/netsim"
	"tdmd/internal/obs"
)

// Observability hook for the solver layer. A SolveObserver receives
// lifecycle and progress events from every registry-dispatched solve;
// the metrics-backed implementation (Metrics) folds them into the
// process-wide obs registry for /metrics and the -stats dumps.
//
// Threading: the observer rides in Options (WithObserver) so no solver
// signature changes; Solve injects a per-call scope into the context,
// and each solver hoists it once at entry (observing(ctx)). The scope
// is nil-safe — with no observer attached every emitter is a nil check
// — and solvers accumulate counts in plain locals, emitting once per
// phase or per solve, so the decision-making hot loops stay
// allocation- and atomic-free. See DESIGN.md "Observability".

// SolveObserver receives solver lifecycle events. Implementations must
// be safe for concurrent use: concurrent solves and HTTP requests
// emit from many goroutines.
type SolveObserver interface {
	// SolveStart fires when dispatch begins for the named solver.
	SolveStart(solver string)
	// SolveDone fires when the solve returns, with its outcome and
	// wall-clock duration.
	SolveDone(solver string, outcome Outcome, elapsed time.Duration)
	// Phase reports the duration of one internal phase (e.g. the
	// greedy "cover" pass, the DP "tables" sweep).
	Phase(solver, phase string, elapsed time.Duration)
	// Count reports n occurrences of a progress event (deployments,
	// branch nodes, incumbent updates, ...). Solvers batch locally and
	// emit aggregate counts, so n is usually > 1.
	Count(solver, event string, n int64)
}

// IncumbentObserver is an optional SolveObserver extension: observers
// that also implement it receive each new best-so-far feasible plan as
// the solver finds it, with its bandwidth. Anytime solvers with a real
// incumbent (branch-and-bound, exhaustive, local search, multistart)
// emit it on every strict improvement, so a long solve can be watched
// — the async job API serves these snapshots while a solve runs.
//
// The plan is a snapshot valid only for the duration of the call;
// implementations that retain it must Clone it. Like the rest of the
// observer contract, implementations must be safe for concurrent use.
type IncumbentObserver interface {
	Incumbent(solver string, plan netsim.Plan, bandwidth float64)
}

// Outcome classifies how a solve ended. Values double as the
// "outcome"/"cause" metric label, so they are snake_case.
type Outcome string

// The solve outcomes.
const (
	// OutcomeOK: ran to completion with a feasible plan.
	OutcomeOK Outcome = "ok"
	// OutcomeInfeasible: ran to completion, no feasible plan exists
	// within the budget.
	OutcomeInfeasible Outcome = "infeasible"
	// OutcomeDeadline: cut short by a context deadline (whether a
	// best-so-far plan was still returned or not).
	OutcomeDeadline Outcome = "deadline"
	// OutcomeCanceled: cut short by explicit cancellation.
	OutcomeCanceled Outcome = "canceled"
	// OutcomeBadOptions: rejected by option validation.
	OutcomeBadOptions Outcome = "bad_options"
	// OutcomeError: failed for any other reason.
	OutcomeError Outcome = "error"
)

// OutcomeOf classifies a (Result, error) pair as returned by Solve.
// Interruptions map to deadline/canceled whether the solver salvaged a
// best-so-far plan (Result.Interrupted) or gave up with an error.
func OutcomeOf(r Result, err error) Outcome {
	switch {
	case err != nil:
		switch {
		case errors.Is(err, ErrBadOptions):
			return OutcomeBadOptions
		case errors.Is(err, context.DeadlineExceeded):
			return OutcomeDeadline
		case errors.Is(err, context.Canceled):
			return OutcomeCanceled
		default:
			return OutcomeError
		}
	case r.Interrupted != nil:
		if errors.Is(r.Interrupted, context.DeadlineExceeded) {
			return OutcomeDeadline
		}
		return OutcomeCanceled
	case !r.Feasible:
		return OutcomeInfeasible
	default:
		return OutcomeOK
	}
}

// Interrupted reports whether the outcome is an interruption
// (deadline or cancellation).
func (o Outcome) Interrupted() bool {
	return o == OutcomeDeadline || o == OutcomeCanceled
}

// obsScopeKey keys the per-solve observer scope in the context.
type obsScopeKey struct{}

// obsScope carries the observer plus the registry name the run is
// attributed to. The zero scope (no observer in ctx) is valid: every
// emitter is a no-op on it.
type obsScope struct {
	ob     SolveObserver
	solver string
}

// withScope attaches the observer scope for one solve.
func withScope(ctx context.Context, ob SolveObserver, solver string) context.Context {
	if ob == nil {
		return ctx
	}
	return context.WithValue(ctx, obsScopeKey{}, obsScope{ob: ob, solver: solver})
}

// observing hoists the solve's observer scope out of the context.
// Solvers call it once at entry — never inside loops.
func observing(ctx context.Context) obsScope {
	sc, _ := ctx.Value(obsScopeKey{}).(obsScope)
	return sc
}

// count emits an aggregate progress count; no-op for n == 0 or an
// empty scope.
//
//tdmd:hot
func (sc obsScope) count(event string, n int64) {
	if sc.ob != nil && n != 0 {
		sc.ob.Count(sc.solver, event, n)
	}
}

// phase emits the time since start as one phase duration.
//
//tdmd:hot
func (sc obsScope) phase(name string, start time.Time) {
	if sc.ob != nil {
		sc.ob.Phase(sc.solver, name, time.Since(start))
	}
}

// active reports whether anything is listening; solvers may use it to
// skip snapshotting clocks for phase timings.
func (sc obsScope) active() bool { return sc.ob != nil }

// incumbent emits a new best-so-far feasible plan to observers that
// opt into IncumbentObserver. Solvers call it only on strict
// improvements, which are rare, so the interface check stays off the
// per-candidate hot path. The plan handed in must be a snapshot the
// solver will not mutate for the duration of the call (State.Plan()
// already clones).
func (sc obsScope) incumbent(p netsim.Plan, bandwidth float64) {
	if io, ok := sc.ob.(IncumbentObserver); ok {
		io.Incumbent(sc.solver, p, bandwidth)
	}
}

// EmitIncumbent reports a new best-so-far feasible plan from a solver
// body. The built-in solvers use the internal scope directly; this
// export is the same emission point for registry solvers implemented
// outside the package (integration tests, experimental solvers).
// No-op unless an IncumbentObserver rides the context.
func EmitIncumbent(ctx context.Context, plan netsim.Plan, bandwidth float64) {
	observing(ctx).incumbent(plan, bandwidth)
}

// wantsIncumbents reports whether the attached observer consumes
// incumbent snapshots. Solvers whose emit site would otherwise pay a
// plan clone per improvement (local search emits at round boundaries)
// hoist this once and skip the snapshot entirely when nothing listens,
// keeping the unobserved path allocation-identical.
func (sc obsScope) wantsIncumbents() bool {
	_, ok := sc.ob.(IncumbentObserver)
	return ok
}

// metricsObserver folds observer events into obs.Default.
type metricsObserver struct {
	inflight   *obs.Gauge
	runs       *obs.CounterVec
	duration   *obs.HistogramVec
	interrupts *obs.CounterVec
	phases     *obs.HistogramVec
	events     *obs.CounterVec
}

var (
	metricsOnce sync.Once
	metricsObs  *metricsObserver
)

// Metrics returns the process-wide metrics-backed observer. All its
// series live on obs.Default under the tdmd_solve_* names; the first
// call registers them.
func Metrics() SolveObserver {
	metricsOnce.Do(func() {
		metricsObs = &metricsObserver{
			inflight: obs.NewGauge("tdmd_solve_inflight",
				"solves currently running"),
			runs: obs.NewCounterVec("tdmd_solve_runs_total",
				"completed solve dispatches by algorithm and outcome",
				"algorithm", "outcome"),
			duration: obs.NewHistogramVec("tdmd_solve_duration_seconds",
				"wall-clock solve latency by algorithm", nil,
				"algorithm"),
			interrupts: obs.NewCounterVec("tdmd_solve_interruptions_total",
				"solves cut short by deadline or cancellation",
				"algorithm", "cause"),
			phases: obs.NewHistogramVec("tdmd_solve_phase_duration_seconds",
				"duration of solver-internal phases", nil,
				"algorithm", "phase"),
			events: obs.NewCounterVec("tdmd_solve_events_total",
				"solver progress events (deployments, branch nodes, ...)",
				"algorithm", "event"),
		}
	})
	return metricsObs
}

func (m *metricsObserver) SolveStart(solver string) { m.inflight.Inc() }

func (m *metricsObserver) SolveDone(solver string, outcome Outcome, elapsed time.Duration) {
	m.inflight.Dec()
	m.runs.With(solver, string(outcome)).Inc()
	m.duration.With(solver).Observe(elapsed.Seconds())
	if outcome.Interrupted() {
		m.interrupts.With(solver, string(outcome)).Inc()
	}
}

func (m *metricsObserver) Phase(solver, phase string, elapsed time.Duration) {
	m.phases.With(solver, phase).Observe(elapsed.Seconds())
}

func (m *metricsObserver) Count(solver, event string, n int64) {
	m.events.With(solver, event).Add(n)
}
