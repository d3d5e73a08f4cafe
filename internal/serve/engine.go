// Package serve is the placement service runtime behind cmd/tdmdserve:
// a single-flight solve engine with a fingerprint-keyed plan cache and
// a bounded worker queue with admission control, an async job store,
// and the HTTP layer that exposes them. cmd/tdmdserve wires flags and
// sockets around it; BenchmarkServeSolve drives single requests
// through Server.Mux in-process, and perfbench/ load-tests the built
// binary. See DESIGN.md §12 "Service architecture".
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tdmd"
	"tdmd/internal/netsim"
	"tdmd/internal/placement"
)

// Submission is one solve request as the engine sees it: a built
// problem plus the dispatch parameters. Seed is a pointer so "no
// seed" and "seed 0" stay distinguishable, mirroring the HTTP API.
type Submission struct {
	Problem   *tdmd.Problem
	Algorithm tdmd.Algorithm
	K         int
	Seed      *int64
}

// Source records where a submission's answer came from.
type Source string

// The outcome sources.
const (
	// SourceFresh: this submission started the solve.
	SourceFresh Source = "fresh"
	// SourceCoalesced: the submission attached to an identical solve
	// already in flight and shares its result.
	SourceCoalesced Source = "coalesced"
	// SourceCache: the plan was replayed from the fingerprint cache.
	SourceCache Source = "cache"
)

// Outcome is a finished submission: the solve's result or error, how
// it was obtained, and when it settled — when the solve returned, or
// when a cache replay was issued.
type Outcome struct {
	Result   tdmd.Result
	Err      error
	Source   Source
	Finished time.Time
}

// ErrSaturated is returned by a submission that found the admission
// queue full: the server is at capacity and the client should retry
// after backing off (HTTP 429 + Retry-After).
var ErrSaturated = errors.New("serve: admission queue full")

// ErrClosed is returned by submissions arriving after shutdown began.
var ErrClosed = errors.New("serve: server is draining")

// Incumbent is a best-so-far feasible plan snapshot captured from a
// running anytime solve, served by the job API while the solve runs.
type Incumbent struct {
	Plan      []int   `json:"plan"`
	Bandwidth float64 `json:"bandwidth"`
	Solver    string  `json:"solver"`
}

// EngineConfig sizes the engine; zero values pick defaults.
type EngineConfig struct {
	// Workers is the solve concurrency (default GOMAXPROCS).
	Workers int
	// Queue is the admission queue length (default 4×workers).
	Queue int
	// CacheSize caps the plan cache entry count (default 128).
	CacheSize int
	// SolveTimeout bounds each solve's wall clock (0 = unbounded).
	SolveTimeout time.Duration
}

// Engine turns submissions into solves with three layers of
// admission discipline, checked in order under one lock:
//
//  1. plan cache — an identical already-solved submission replays its
//     cached result without touching the queue;
//  2. coalescing — an identical submission currently in flight gains
//     a waiter instead of a duplicate solve;
//  3. worker queue — everything else is admitted to the bounded queue
//     or rejected with ErrSaturated. Admission never blocks, so a
//     traffic spike turns into fast 429s instead of a pile-up.
//
// A fixed set of workers drains the queue. Flights run under the
// engine's own lifetime context, not any one request's: a coalesced
// solve must survive its first requester hanging up. Request-level
// cancellation is reference-counted — Ticket.Release by the last
// waiter cancels the flight.
type Engine struct {
	cache        *planCache
	solveTimeout time.Duration
	baseCtx      context.Context
	baseCancel   context.CancelFunc
	workers      sync.WaitGroup

	// mu guards queue's send and close, inflight, closed and every
	// cache call. The workers received the queue at construction, so
	// their receives never touch the field.
	mu       sync.Mutex
	queue    chan *flight
	inflight map[Fingerprint]*flight
	closed   bool
}

// NewEngine builds and starts an engine.
func NewEngine(cfg EngineConfig) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queueLen := cfg.Queue
	if queueLen <= 0 {
		queueLen = 4 * workers
	}
	cacheSize := cfg.CacheSize
	if cacheSize <= 0 {
		cacheSize = 128
	}
	ctx, cancel := context.WithCancel(context.Background())
	queue := make(chan *flight, queueLen)
	e := &Engine{
		cache:        newPlanCache(cacheSize),
		solveTimeout: cfg.SolveTimeout,
		baseCtx:      ctx,
		baseCancel:   cancel,
		queue:        queue,
		inflight:     make(map[Fingerprint]*flight),
	}
	poolWorkers.Set(int64(workers))
	queueCapacity.Set(int64(queueLen))
	e.start(workers, queue)
	return e
}

// start spawns the workers, each handed the queue before the engine is
// published. Each signals completion through the engine's WaitGroup,
// which Close waits on.
func (e *Engine) start(workers int, queue <-chan *flight) {
	for i := 0; i < workers; i++ {
		e.workers.Add(1)
		go e.worker(queue)
	}
}

// worker runs queued flights until Close closes the queue.
func (e *Engine) worker(queue <-chan *flight) {
	defer e.workers.Done()
	for fl := range queue {
		queueDepth.Dec()
		queueWait.Observe(time.Since(fl.enqueued).Seconds())
		poolBusy.Inc()
		fl.run()
		poolBusy.Dec()
	}
}

// flight is one running (or queued) solve plus everything its waiters
// share. enqueued is written before the flight is queued; res, err and
// finished are written once before done closes. Readers go through the
// channels, so no lock guards them. waiters is guarded by the engine
// mutex.
type flight struct {
	eng       *Engine
	fp        Fingerprint
	sub       Submission
	ctx       context.Context
	cancel    context.CancelFunc
	enqueued  time.Time
	done      chan struct{}
	res       tdmd.Result
	err       error
	finished  time.Time
	running   atomic.Bool
	incumbent atomic.Pointer[Incumbent]
	waiters   int
}

// Submit admits one submission and returns a Ticket for its outcome.
// Errors: ErrSaturated (queue full — tell the client to retry),
// ErrClosed (draining). Every returned Ticket must be Released.
func (e *Engine) Submit(sub Submission) (*Ticket, error) {
	fp := SubmissionFingerprint(sub)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if res, ok := e.cache.get(fp); ok {
		cacheHitsTotal.Inc()
		return &Ticket{outcome: &Outcome{Result: res, Source: SourceCache, Finished: time.Now()}}, nil
	}
	if fl := e.inflight[fp]; fl != nil {
		fl.waiters++
		coalescedTotal.Inc()
		return &Ticket{fl: fl, source: SourceCoalesced}, nil
	}
	cacheMissesTotal.Inc()
	ctx, cancel := context.WithCancel(e.baseCtx)
	fl := &flight{
		eng:      e,
		fp:       fp,
		sub:      sub,
		ctx:      ctx,
		cancel:   cancel,
		enqueued: time.Now(),
		done:     make(chan struct{}),
		waiters:  1,
	}
	select {
	case e.queue <- fl:
		queueDepth.Inc()
	default:
		rejectedTotal.Inc()
		cancel()
		return nil, ErrSaturated
	}
	e.inflight[fp] = fl
	return &Ticket{fl: fl, source: SourceFresh}, nil
}

// run executes the flight on a worker.
func (fl *flight) run() {
	// Abandoned (every waiter released) or engine-canceled while
	// queued: don't burn the worker on an answer nobody wants.
	if err := fl.ctx.Err(); err != nil {
		fl.finish(tdmd.Result{}, err)
		return
	}
	fl.running.Store(true)
	ctx := fl.ctx
	if fl.eng.solveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, fl.eng.solveTimeout)
		defer cancel()
	}
	// The recorder tees lifecycle events to the process metrics
	// observer (so served solves keep landing in tdmd_solve_*) and
	// captures incumbent snapshots for the job API. Seeds ride on the
	// Problem as ambient values (set at submission build time), so the
	// observer tee is the only per-call option.
	res, err := fl.sub.Problem.Solve(ctx, fl.sub.Algorithm, fl.sub.K,
		tdmd.WithSolveObserver(&incumbentRecorder{fl: fl, next: placement.Metrics()}))
	solvesTotal.Inc()
	fl.finish(res, err)
}

// finish publishes the outcome: deregister from the in-flight table,
// cache complete solves, then release the waiters. Interrupted
// results are never cached — a best-so-far plan under one budget must
// not masquerade as the full answer to a later identical request.
//
// A finished flight stays reachable from every unreleased Ticket (an
// async job holds one until eviction), so it keeps only the answer:
// the problem, the incumbent snapshot and the context's registration
// with the engine's base context are all dropped before done closes.
func (fl *flight) finish(res tdmd.Result, err error) {
	e := fl.eng
	e.mu.Lock()
	if e.inflight[fl.fp] == fl {
		delete(e.inflight, fl.fp)
	}
	if err == nil && res.Interrupted == nil {
		e.cache.put(fl.fp, res)
	}
	e.mu.Unlock()
	fl.res, fl.err, fl.finished = res, err, time.Now()
	fl.sub = Submission{}
	fl.incumbent.Store(nil)
	fl.cancel()
	close(fl.done)
}

// outcome packages the published result; only valid once done is
// closed.
func (fl *flight) outcome(src Source) Outcome {
	return Outcome{Result: fl.res, Err: fl.err, Source: src, Finished: fl.finished}
}

// Ticket is one waiter's handle on a submission. Wait blocks for the
// outcome; Release must be called exactly once when the waiter stops
// caring (releasing the last waiter of an unfinished flight cancels
// the solve).
type Ticket struct {
	fl       *flight
	source   Source
	outcome  *Outcome // pre-resolved for cache hits (fl == nil)
	released atomic.Bool
}

// Source reports where this ticket's answer comes from.
func (t *Ticket) Source() Source {
	if t.fl == nil {
		return SourceCache
	}
	return t.source
}

// Wait blocks until the solve finishes or ctx fires. The non-nil
// error return is always ctx's own error; solve failures travel
// inside the Outcome.
func (t *Ticket) Wait(ctx context.Context) (Outcome, error) {
	if t.fl == nil {
		return *t.outcome, nil
	}
	select {
	case <-t.fl.done:
		return t.fl.outcome(t.source), nil
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
}

// Outcome returns the result without blocking; ok is false while the
// solve is still running.
func (t *Ticket) Outcome() (Outcome, bool) {
	if t.fl == nil {
		return *t.outcome, true
	}
	select {
	case <-t.fl.done:
		return t.fl.outcome(t.source), true
	default:
		return Outcome{}, false
	}
}

// Running reports whether a worker has picked the solve up (false
// both while queued and after completion).
func (t *Ticket) Running() bool {
	if t.fl == nil {
		return false
	}
	select {
	case <-t.fl.done:
		return false
	default:
		return t.fl.running.Load()
	}
}

// Incumbent returns the latest best-so-far snapshot from the running
// solve, or nil when the solver has not reported one (cache hits,
// queued or finished flights, non-anytime algorithms).
func (t *Ticket) Incumbent() *Incumbent {
	if t.fl == nil {
		return nil
	}
	return t.fl.incumbent.Load()
}

// Release drops this waiter's interest. The last waiter of an
// unfinished flight cancels it (the anytime contract then winds the
// solver down promptly); releasing after completion is a no-op
// beyond bookkeeping. Idempotent per ticket.
func (t *Ticket) Release() {
	if t.fl == nil || t.released.Swap(true) {
		return
	}
	fl := t.fl
	e := fl.eng
	e.mu.Lock()
	fl.waiters--
	abandoned := fl.waiters == 0
	if abandoned && e.inflight[fl.fp] == fl {
		// Deregister so a fresh identical submission starts a new
		// flight instead of coalescing onto a canceled one.
		delete(e.inflight, fl.fp)
	}
	e.mu.Unlock()
	if abandoned {
		fl.cancel()
	}
}

// Close stops admission and drains: queued and running flights finish
// (waiters get real results) unless ctx expires first, at which point
// in-flight solves are canceled and — per the anytime contract —
// return best-so-far promptly. Always waits for the workers to exit.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	already := e.closed
	if !already {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		e.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		e.baseCancel()
		return nil
	case <-ctx.Done():
		e.baseCancel()
		<-done
		return ctx.Err()
	}
}

// CacheLen reports the plan cache's live entry count (tests and
// stats). It takes the engine mutex, which guards every cache access.
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache.len()
}

// incumbentRecorder tees solver lifecycle events to the process
// metrics observer and captures incumbent snapshots onto the flight.
// Snapshots are kept monotone best: multistart solvers may report a
// later, worse local optimum, which must not displace the best plan
// already shown to pollers.
type incumbentRecorder struct {
	fl   *flight
	next placement.SolveObserver
}

func (rec *incumbentRecorder) SolveStart(solver string) { rec.next.SolveStart(solver) }

func (rec *incumbentRecorder) SolveDone(solver string, outcome placement.Outcome, elapsed time.Duration) {
	rec.next.SolveDone(solver, outcome, elapsed)
}

func (rec *incumbentRecorder) Phase(solver, phase string, elapsed time.Duration) {
	rec.next.Phase(solver, phase, elapsed)
}

func (rec *incumbentRecorder) Count(solver, event string, n int64) {
	rec.next.Count(solver, event, n)
}

func (rec *incumbentRecorder) Incumbent(solver string, plan netsim.Plan, bandwidth float64) {
	for {
		cur := rec.fl.incumbent.Load()
		if cur != nil && cur.Bandwidth <= bandwidth {
			return
		}
		snap := &Incumbent{Plan: make([]int, 0, plan.Size()), Bandwidth: bandwidth, Solver: solver}
		for _, v := range plan.Vertices() {
			snap.Plan = append(snap.Plan, int(v))
		}
		if rec.fl.incumbent.CompareAndSwap(cur, snap) {
			return
		}
	}
}
