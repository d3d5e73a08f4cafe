package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"
)

// bulk-ingest settings.
const (
	// pollRate is the poller's mean rate (polls per second) while a job
	// runs: a poll every millisecond on average, small next to a job's
	// time and frequent enough for a p99 over the polls.
	pollRate = 1000.0
	// A run measures one job per bulkJobSeconds of --seconds, and at
	// least bulkMinJobs. The count is fixed rather than the time: every
	// finished job stays in the server's job store, so peak_rss_mb
	// grows with the jobs done, and a time-bounded run would make it
	// follow the machine's speed.
	bulkJobSeconds = 1.5
	bulkMinJobs    = 4
	// bulkTraced fresh jobs are replayed by the traced run.
	bulkTraced = 2
)

func runBulk(cfg config) (*report, error) {
	ctx := context.Background()
	nJobs := max(bulkMinJobs, int(math.Ceil(cfg.seconds/bulkJobSeconds)))
	want := 1 + nJobs
	if cfg.trace {
		want += bulkTraced
	}
	reqs, err := generate(want, func(id int) (request, error) { return bulkRequest(cfg.seed, id) })
	if err != nil {
		return nil, err
	}
	warmup, pool, traced := reqs[:1], reqs[1:1+nJobs], reqs[1+nJobs:]
	note("inputs: 1 warm-up job, %d measured jobs of %d flows, polls at %.0f/s", nJobs, bulkFlows, pollRate)

	client := newClient(cfg.nproc)
	defer client.CloseIdleConnections()
	srv, setups, warmOps, err := setUp(cfg, client, func(s *server) ([]*op, error) {
		jobs, _, _, err := bulkLoop(ctx, client, s.base, cfg.seed, pollRate, drain(warmup))
		return jobs, err
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	before, err := scrape(ctx, client, srv.base)
	if err != nil {
		return nil, err
	}
	var jobs, polls []*op
	var elapsed, cpu0, cpu1 time.Duration
	var cpuErr0, cpuErr1 error
	quiet(func() {
		cpu0, cpuErr0 = srv.cpuTime()
		jobs, polls, elapsed, err = bulkLoop(ctx, client, srv.base, cfg.seed, pollRate, drain(pool))
		cpu1, cpuErr1 = srv.cpuTime()
	})
	if err := errors.Join(err, cpuErr0, cpuErr1); err != nil {
		return nil, err
	}
	after, err := scrape(ctx, client, srv.base)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	d := delta(before, after)
	if err := requireSeries(after, solverSeries(map[string]bool{"gtp-lazy": true})...); err != nil {
		return nil, err
	}
	if h, c := d["tdmd_serve_cache_hits_total"], d["tdmd_serve_coalesced_total"]; h != 0 || c != 0 {
		return nil, fmt.Errorf("premise: bulk-ingest saw %v cache hits and %v coalesced submissions, want 0 and 0", h, c)
	}

	rep := &report{}
	if cfg.trace {
		send := func(sample []*request) ([]*op, error) {
			jobs, _, _, err := bulkLoop(ctx, client, srv.base, cfg.seed, pollRate, drain(sample))
			return jobs, err
		}
		if err := traceSample(ctx, cfg, rep, warmup, traced, send); err != nil {
			return nil, err
		}
	}

	var all []*op
	for _, w := range warmOps {
		all = append(all, w...)
	}
	all = append(all, jobs...)
	rep.attempted += len(all) + len(polls)
	rep.failed += tally(all, http.StatusOK, checkSolve) + tally(polls, http.StatusOK, nil)

	good := 0
	var jobTimes []time.Duration
	var ingest []float64
	for _, o := range jobs {
		jobTimes = append(jobTimes, o.latency())
		if o.err == nil {
			good++
			ingest = append(ingest, float64(o.req.flows)/o.accept.Sub(o.sent).Seconds())
		}
	}
	note("jobs: %d in %.3f s", len(jobs), elapsed.Seconds())
	rep.set("cpu_ms_per_op", ms(cpu1-cpu0)/math.Max(1, float64(good)), "ms")
	rep.set("setup_s", medianDuration(setups).Seconds(), "s")
	rep.set("throughput_rps", float64(good)/elapsed.Seconds(), "req/s")
	latencyMetrics(rep, polls, "polls")
	rep.set("job_p50_s", medianDuration(jobTimes).Seconds(), "s")
	rep.set("ingest_flows_per_s", median(ingest), "flows/s")
	rep.set("peak_rss_mb", rss, "MiB")
	rep.set("ok_frac", 1-ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.set("bandwidth_ratio", bandwidthRatio(warmOps[len(warmOps)-1]), "ratio")
	counterMetrics(rep, d, after)
	return rep, nil
}
