package placement

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"tdmd/internal/netsim"
	"tdmd/internal/obs"
)

// recordingObserver captures every event for assertions. Thread-safe:
// one observer may be shared by concurrent solves.
type recordingObserver struct {
	mu       sync.Mutex
	starts   []string
	dones    []string
	outcomes []Outcome
	phases   map[string]int
	counts   map[string]int64
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{phases: map[string]int{}, counts: map[string]int64{}}
}

func (r *recordingObserver) SolveStart(solver string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts = append(r.starts, solver)
}

func (r *recordingObserver) SolveDone(solver string, outcome Outcome, elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dones = append(r.dones, solver)
	r.outcomes = append(r.outcomes, outcome)
}

func (r *recordingObserver) Phase(solver, phase string, elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.phases[solver+"/"+phase]++
}

func (r *recordingObserver) Count(solver, event string, n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[solver+"/"+event] += n
}

func TestSolveEmitsLifecycleEvents(t *testing.T) {
	in := fig1Instance(t)
	rec := newRecordingObserver()
	r, err := Solve(context.Background(), "gtp", in,
		Options{K: 3, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("gtp infeasible on fig1")
	}
	if len(rec.starts) != 1 || rec.starts[0] != "gtp" {
		t.Fatalf("starts = %v, want [gtp]", rec.starts)
	}
	if len(rec.dones) != 1 || rec.outcomes[0] != OutcomeOK {
		t.Fatalf("dones = %v outcomes = %v, want one ok", rec.dones, rec.outcomes)
	}
	if got := rec.counts["gtp/deployments"]; got != int64(r.Plan.Size()) {
		t.Fatalf("deployments = %d, want plan size %d", got, r.Plan.Size())
	}
	if rec.phases["gtp/cover"] != 1 || rec.phases["gtp/spend"] != 1 {
		t.Fatalf("phases = %v, want one cover and one spend", rec.phases)
	}
}

func TestSolveWithoutObserverEmitsNothing(t *testing.T) {
	// The scope must be absent, not just inert: observing() on a bare
	// context returns the zero scope whose emitters are no-ops.
	sc := observing(context.Background())
	if sc.active() {
		t.Fatal("bare context reports an active observer scope")
	}
	sc.count("x", 1)          // must not panic
	sc.phase("x", time.Now()) // must not panic
	in := fig1Instance(t)
	if _, err := Solve(context.Background(), "gtp", in, Options{K: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestObserverIdentityAcrossAllSolvers runs every registered solver
// with and without an observer attached and requires bit-identical
// plans and bandwidth: observation must never change a decision.
func TestObserverIdentityAcrossAllSolvers(t *testing.T) {
	general := fig1Instance(t)
	// Tree-only solvers get a proper root-destination tree workload.
	treeIn, tr := randomTreeInstance(rand.New(rand.NewSource(17)), 9)
	if treeIn.NumFlows() == 0 {
		t.Fatal("tree fixture generated no flows")
	}
	type fixture struct {
		in   *netsim.Instance
		opts Options
	}
	optsFor := map[string]fixture{
		"gtp":           {general, Options{K: 3}},
		"gtp-lazy":      {general, Options{}},
		"gtp-ls":        {general, Options{K: 3}},
		"dp":            {treeIn, Options{K: 3, Tree: tr}},
		"hat":           {treeIn, Options{K: 3, Tree: tr}},
		"random":        {general, Options{K: 3, Seed: seedOf(42)}},
		"best-effort":   {general, Options{K: 3}},
		"exhaustive":    {general, Options{K: 3}},
		"min-boxes":     {general, Options{}},
		"bnb":           {general, Options{K: 3}},
		"capacitated":   {general, Options{K: 3, Capacity: 100}},
		"multistart-ls": {general, Options{K: 3, Seed: seedOf(7)}},
	}
	for _, name := range Names() {
		fx, ok := optsFor[name]
		if !ok {
			t.Fatalf("no option fixture for solver %q — extend optsFor", name)
		}
		in, opts := fx.in, fx.opts
		t.Run(name, func(t *testing.T) {
			plain, err := Solve(context.Background(), name, in, opts)
			if err != nil {
				t.Fatalf("unobserved solve: %v", err)
			}
			rec := newRecordingObserver()
			opts.Observer = rec
			observed, err := Solve(context.Background(), name, in, opts)
			if err != nil {
				t.Fatalf("observed solve: %v", err)
			}
			if observed.Bandwidth != plain.Bandwidth ||
				!planEquals(observed.Plan, plain.Plan.Vertices()...) {
				t.Fatalf("observer changed the solve: %v/%v vs %v/%v",
					observed.Plan, observed.Bandwidth, plain.Plan, plain.Bandwidth)
			}
			if len(rec.starts) != 1 || len(rec.dones) != 1 {
				t.Fatalf("start/done not paired: %v / %v", rec.starts, rec.dones)
			}
			if rec.outcomes[0] != OutcomeOK {
				t.Fatalf("outcome = %v, want ok", rec.outcomes[0])
			}
		})
	}
}

func TestOutcomeClassification(t *testing.T) {
	in := fig1Instance(t)

	// Validation failure: paired start/done with bad_options.
	rec := newRecordingObserver()
	if _, err := Solve(context.Background(), "gtp", in,
		Options{Observer: rec}); err == nil {
		t.Fatal("missing k accepted")
	}
	if len(rec.dones) != 1 || rec.outcomes[0] != OutcomeBadOptions {
		t.Fatalf("bad options recorded as %v", rec.outcomes)
	}

	// Pre-canceled context: canceled outcome.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec = newRecordingObserver()
	if _, err := Solve(ctx, "gtp", in,
		Options{K: 3, Observer: rec}); err == nil {
		t.Fatal("canceled solve returned no error")
	}
	if len(rec.outcomes) != 1 || rec.outcomes[0] != OutcomeCanceled {
		t.Fatalf("canceled solve recorded as %v", rec.outcomes)
	}
	if !OutcomeCanceled.Interrupted() || !OutcomeDeadline.Interrupted() || OutcomeOK.Interrupted() {
		t.Fatal("Outcome.Interrupted misclassifies")
	}

	// Expired deadline: deadline outcome.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	rec = newRecordingObserver()
	if _, err := Solve(dctx, "gtp", in,
		Options{K: 3, Observer: rec}); err == nil {
		t.Fatal("expired solve returned no error")
	}
	if len(rec.outcomes) != 1 || rec.outcomes[0] != OutcomeDeadline {
		t.Fatalf("deadline solve recorded as %v", rec.outcomes)
	}
}

// TestMetricsObserverExposition drives the metrics-backed observer and
// checks the solve series land on the default registry in parseable
// Prometheus text. Counters are process-global, so assertions are on
// series presence, not absolute values.
func TestMetricsObserverExposition(t *testing.T) {
	in := fig1Instance(t)
	if _, err := Solve(context.Background(), "gtp", in,
		Options{K: 3, Observer: Metrics()}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`tdmd_solve_runs_total{algorithm="gtp",outcome="ok"}`,
		`tdmd_solve_duration_seconds_bucket{algorithm="gtp",le="+Inf"}`,
		`tdmd_solve_events_total{algorithm="gtp",event="deployments"}`,
		`tdmd_solve_phase_duration_seconds_count{algorithm="gtp",phase="cover"}`,
		"tdmd_solve_inflight 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
