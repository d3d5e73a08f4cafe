// Command tdmdserve exposes the solver as an HTTP service, the shape
// in which an NFV orchestrator would consume this library: POST a
// problem spec, get a deployment plan back.
//
// Endpoints:
//
//	POST   /api/solve     {"spec": <ProblemSpec>, "algorithm": "gtp", "k": 10}
//	                      -> {"plan": [...], "bandwidth": ..., "feasible": ...}
//	POST   /api/evaluate  {"spec": <ProblemSpec>, "plan": [...]}
//	                      -> deployment report
//	POST   /v1/jobs       async solve; JSON body as /api/solve, or a
//	                      tdmd-flows/1 NDJSON stream (Content-Type
//	                      application/x-ndjson, algorithm/k/seed as query
//	                      parameters) -> 202 {"id": ..., "state": ...}
//	GET    /v1/jobs/{id}  job status; carries the best-so-far incumbent
//	                      while an anytime solve runs, the result once done
//	DELETE /v1/jobs/{id}  cancel the job (cancels the solve if it was the
//	                      last interested party)
//	GET    /healthz       -> 200 while the process lives (liveness)
//	GET    /readyz        -> 200 while accepting work, 503 once draining
//	GET    /metrics       -> Prometheus text exposition (solver + serve series)
//
// Solves are executed by a bounded worker pool (-workers) behind a
// bounded admission queue (-queue): when the queue is full the server
// answers 429 with a Retry-After hint instead of stacking goroutines.
// Identical concurrent submissions coalesce onto one solve, and
// completed plans are replayed from an LRU fingerprint cache
// (-cache-size) bit-identically to a fresh solve. Every solve runs
// under the -solve-timeout budget; a synchronous client that
// disconnects cancels its solve (logged as 499, not a server error).
// SIGINT/SIGTERM flip /readyz to 503, stop accepting connections and
// drain in-flight work before exiting.
//
// Each API request emits one structured log line and lands in the
// tdmd_http_* / tdmd_serve_* series on /metrics. With -pprof-addr set,
// net/http/pprof and expvar are served on that separate address so
// profiling is never exposed on the public port.
//
// Errors come back as a JSON envelope:
//
//	{"error": "...", "elapsed_ms": 1.2, "deadline_ms": 1000}
//
// with deadline_ms present only when a solve budget applied. Bad
// options are 400; infeasible instances 422; solves cut off before any
// feasible plan 503; a saturated queue 429.
//
// Usage:
//
//	tdmdserve -addr :8080 -solve-timeout 30s -workers 8 -queue 32
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only on -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"tdmd"
	"tdmd/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	solveTimeout := flag.Duration("solve-timeout", 0, "per-solve budget (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "shutdown drain budget for in-flight work")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof and expvar on this separate address (empty = off)")
	workers := flag.Int("workers", 0, "solve worker count (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue length (0 = 4×workers)")
	cacheSize := flag.Int("cache-size", 0, "plan cache entries (0 = 128)")
	maxJobs := flag.Int("max-jobs", 0, "async job store capacity (0 = 1024)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint sent with 429 responses")
	maxStreamBytes := flag.Int64("max-stream-bytes", 0, "NDJSON job body cap in bytes (0 = 256 MiB)")
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	tdmd.PublishExpvarMetrics()

	s := serve.New(serve.Config{
		EngineConfig: serve.EngineConfig{
			SolveTimeout: *solveTimeout,
			Workers:      *workers,
			Queue:        *queue,
			CacheSize:    *cacheSize,
		},
		MaxJobs:        *maxJobs,
		RetryAfter:     *retryAfter,
		MaxStreamBytes: *maxStreamBytes,
	}, logger)
	hsrv := &http.Server{
		Handler:           s.Mux(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := listen("tdmdserve", *addr, logger)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}

	var stopPprof func(context.Context)
	if *pprofAddr != "" {
		pln, err := listen("pprof/expvar", *pprofAddr, logger)
		if err != nil {
			logger.Error("pprof listen failed", "addr", *pprofAddr, "err", err)
			os.Exit(1)
		}
		stopPprof = startPprof(pln, logger)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hsrv.Serve(ln) }()
	select {
	case err := <-errc:
		logger.Error("server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		// Flip readiness first so health-checked load balancers stop
		// routing to us while in-flight requests drain.
		s.Drain()
		logger.Info("shutting down, draining in-flight requests")
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hsrv.Shutdown(shutCtx); err != nil {
			logger.Error("drain incomplete", "err", err)
		}
		// The HTTP connections are gone; now drain queued/running async
		// solves on whatever drain budget remains.
		if err := s.Close(shutCtx); err != nil {
			logger.Error("engine drain incomplete", "err", err)
		}
		if stopPprof != nil {
			stopPprof(shutCtx)
		}
	}
}

// startPprof serves the pprof/expvar mux on ln until the returned
// stop function is called. Stop shuts the server down and then waits
// for the serve goroutine's exit report, so shutdown cannot leak it —
// the goroutine's only blocking operation is a send on a buffered
// channel that stop receives.
func startPprof(ln net.Listener, logger *slog.Logger) func(context.Context) {
	srv := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return func(ctx context.Context) {
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("pprof drain incomplete", "err", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("pprof server failed", "err", err)
		}
	}
}

// listen binds addr and only then announces the resolved address:
// "listening" must mean the socket is accepting, and with -addr :0 the
// kernel-chosen port is the useful fact to report.
func listen(name, addr string, logger *slog.Logger) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	logger.Info(name+" listening", "addr", ln.Addr().String())
	return ln, nil
}
