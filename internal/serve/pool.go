// Package serve is the placement service runtime behind cmd/tdmdserve:
// a bounded worker pool with admission control, a single-flight solve
// engine with a fingerprint-keyed plan cache, an async job store, and
// the HTTP layer that exposes them. cmd/tdmdserve wires flags and
// sockets around it; BenchmarkServeSolve drives single requests
// through Server.Mux in-process, and perfbench/ load-tests the built
// binary. See DESIGN.md §12 "Service architecture".
package serve

import (
	"errors"
	"sync"
	"time"
)

// ErrSaturated is returned by a submission that found the admission
// queue full: the server is at capacity and the client should retry
// after backing off (HTTP 429 + Retry-After).
var ErrSaturated = errors.New("serve: admission queue full")

// ErrClosed is returned by submissions arriving after shutdown began.
var ErrClosed = errors.New("serve: server is draining")

// poolTask carries one unit of work plus its admission time, so the
// queue-wait histogram measures admission-to-pickup latency.
type poolTask struct {
	run      func()
	enqueued time.Time
}

// Pool is a fixed-size worker pool with a bounded admission queue.
// Admission never blocks: TrySubmit either enqueues or fails with
// ErrSaturated, so a traffic spike turns into fast 429s instead of an
// unbounded goroutine or queue pile-up. Close drains: queued tasks
// still run, workers exit when the queue empties.
type Pool struct {
	mu     sync.Mutex
	queue  chan poolTask
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts workers goroutines consuming a queue of queueLen
// pending tasks (both must be positive; the Engine applies defaults).
// The queue channel is handed to each worker here, before the pool is
// published, so workers never touch the mutex-guarded field: every
// post-construction access to p.queue (TrySubmit's send, Close's
// close) holds p.mu.
func NewPool(workers, queueLen int) *Pool {
	p := &Pool{queue: make(chan poolTask, queueLen)}
	poolWorkers.Set(int64(workers))
	queueCapacity.Set(int64(queueLen))
	p.start(workers, p.queue)
	return p
}

// start spawns the worker goroutines. Each signals completion through
// the pool's WaitGroup; Wait joins them after Close.
func (p *Pool) start(workers int, queue <-chan poolTask) {
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker(queue)
	}
}

// worker drains the queue until Close closes it, signalling completion
// through the pool's WaitGroup; Wait joins the workers after Close.
func (p *Pool) worker(queue <-chan poolTask) {
	defer p.wg.Done()
	for t := range queue {
		queueDepth.Dec()
		queueWait.Observe(time.Since(t.enqueued).Seconds())
		poolBusy.Inc()
		t.run()
		poolBusy.Dec()
	}
}

// TrySubmit enqueues run without blocking: ErrSaturated when the queue
// is full, ErrClosed after Close.
func (p *Pool) TrySubmit(run func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.queue <- poolTask{run: run, enqueued: time.Now()}:
		queueDepth.Inc()
		return nil
	default:
		rejectedTotal.Inc()
		return ErrSaturated
	}
}

// Close stops admission and lets the workers drain the queue. Safe to
// call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
}

// Wait blocks until every worker has exited; call after Close.
func (p *Pool) Wait() { p.wg.Wait() }
