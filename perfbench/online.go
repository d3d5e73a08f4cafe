package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"tdmd/internal/serve"
	"tdmd/internal/stats"
)

// Online workload settings. The offered rates are fixed, so later
// commits are measured under the same load: about an eighth (cold) and
// a quarter (hot) of the closed-loop throughput_rps at the commit that
// introduced the benchmark. At half of it, the queue at the client's
// nproc connections amplified every slowdown of the shared machine,
// and p99 swung by more than its median from run to run.
const (
	coldRate = 100.0 // online-cold open-loop requests per second
	hotRate  = 75.0  // online-hot open-loop requests per second
	// closedShare of the measured seconds runs the closed loop; the
	// rest runs the open loop.
	closedShare = 0.4
	// minOpen keeps at least minTail samples beyond p99.
	minOpen = 100*minTail + minTail
	// coldWarmup distinct problems warm the server up; their answers
	// also give bandwidth_ratio.
	coldWarmup = 256
	// coldCeiling bounds the closed-loop throughput the cold pool is
	// generated for; past it the loop ends early and throughput is
	// taken over the shorter window.
	coldCeiling = 1000.0
	// coldTraced fresh problems are replayed by the traced run.
	coldTraced = 200
)

func runOnline(cfg config) (*report, error) {
	ctx := context.Background()
	hot := cfg.workload == "online-hot"
	rate := coldRate
	if hot {
		rate = hotRate
	}
	closedDur := time.Duration(cfg.seconds * closedShare * float64(time.Second))
	nOpen := max(int(math.Ceil(rate*cfg.seconds*(1-closedShare))), minOpen)

	// Inputs and their reference answers; none of this is timed.
	var warmup, closedPool, openReqs, traced []*request
	var nextClosed func() *request
	if hot {
		var err error
		warmup, err = generate(hotWorkingSet, func(id int) (request, error) { return hotRequest(cfg.seed, id) })
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(stats.DeriveSeed(cfg.seed, streamPick)))
		for i := 0; i < nOpen; i++ {
			openReqs = append(openReqs, warmup[rng.Intn(len(warmup))])
		}
		var mu sync.Mutex
		nextClosed = func() *request {
			mu.Lock()
			defer mu.Unlock()
			return warmup[rng.Intn(len(warmup))]
		}
		traced = warmup
	} else {
		seen := map[serve.Fingerprint]bool{}
		phases := []struct {
			reqs   *[]*request
			stream uint64
			n      int
		}{
			{&warmup, streamColdWarmup, coldWarmup},
			{&openReqs, streamColdOpen, nOpen},
			{&closedPool, streamColdClosed, int(coldCeiling * closedDur.Seconds())},
			{&traced, streamColdTraced, coldTraced},
		}
		if !cfg.trace {
			phases = phases[:3]
		}
		for _, ph := range phases {
			reqs, err := coldPhase(cfg.seed, ph.stream, ph.n, seen)
			if err != nil {
				return nil, err
			}
			*ph.reqs = reqs
		}
		// Fingerprint repeats were dropped; the schedule needs one
		// request per arrival.
		nOpen = min(nOpen, len(openReqs))
		nextClosed = drain(closedPool)
	}
	note("inputs: %d warm-up, %d open-loop requests at %.0f/s, closed-loop pool %d", len(warmup), nOpen, rate, len(closedPool))

	client := newClient(cfg.nproc)
	defer client.CloseIdleConnections()
	srv, setups, warmOps, err := setUp(cfg, client, func(s *server) ([]*op, error) {
		ops, _ := closedLoop(ctx, client, s.base, cfg.nproc, time.Hour, drain(warmup))
		return ops, nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	before, err := scrape(ctx, client, srv.base)
	if err != nil {
		return nil, err
	}
	schedule := poissonSchedule(cfg.seed, rate, nOpen)
	var closedOps, openOps []*op
	var closedStart time.Time
	var closedElapsed, cpu0, cpu1 time.Duration
	var cpuErr0, cpuErr1 error
	quiet(func() {
		cpu0, cpuErr0 = srv.cpuTime()
		closedStart = time.Now()
		closedOps, closedElapsed = closedLoop(ctx, client, srv.base, cfg.nproc, closedDur, nextClosed)
		cpu1, cpuErr1 = srv.cpuTime()
		openOps = openLoop(ctx, client, srv.base, cfg.nproc, schedule, openReqs)
	})
	if err := errors.Join(cpuErr0, cpuErr1); err != nil {
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

	algs := map[string]bool{}
	for _, o := range closedOps {
		algs[string(o.req.alg)] = true
	}
	if err := requireSeries(after, solverSeries(algs)...); err != nil {
		return nil, err
	}
	hitRatio := ratio(d["tdmd_serve_cache_hits_total"],
		d["tdmd_serve_cache_hits_total"]+d["tdmd_serve_cache_misses_total"]+d["tdmd_serve_coalesced_total"])
	switch {
	case hot && hitRatio < 0.99:
		return nil, fmt.Errorf("premise: online-hot cache hit ratio %.4f < 0.99", hitRatio)
	case !hot && d["tdmd_serve_cache_hits_total"] != 0:
		return nil, fmt.Errorf("premise: online-cold saw %v cache hits, want 0", d["tdmd_serve_cache_hits_total"])
	}

	rep := &report{}
	if cfg.trace {
		// The HTTP pass is a closed loop with a single client.
		send := func(sample []*request) ([]*op, error) {
			ops, _ := closedLoop(ctx, client, srv.base, 1, time.Hour, drain(sample))
			return ops, nil
		}
		if err := traceSample(ctx, cfg, rep, warmup, traced, send); err != nil {
			return nil, err
		}
	}

	var all []*op
	for _, w := range warmOps {
		all = append(all, w...)
	}
	all = append(all, closedOps...)
	all = append(all, openOps...)
	rep.attempted += len(all)
	rep.failed += tally(all, http.StatusOK, checkSolve)

	good := 0
	var closedLat []time.Duration
	for _, o := range closedOps {
		closedLat = append(closedLat, o.latency())
		if o.err == nil {
			good++
		}
	}
	rep.set("cpu_ms_per_op", ms(cpu1-cpu0)/math.Max(1, float64(good)), "ms")
	note("closed loop: %d requests from %d clients in %.3f s", len(closedOps), cfg.nproc, closedElapsed.Seconds())
	rep.set("setup_s", medianDuration(setups).Seconds(), "s")
	rep.set("throughput_rps", windowedRate(closedOps, closedStart, closedElapsed, func(*op) float64 { return 1 }), "req/s")
	latencyMetrics(rep, openOps, "requests")
	rep.set("job_p50_s", medianDuration(closedLat).Seconds(), "s")
	rep.set("ingest_flows_per_s", windowedRate(closedOps, closedStart, closedElapsed,
		func(o *op) float64 { return float64(o.req.flows) }), "flows/s")
	rep.set("peak_rss_mb", rss, "MiB")
	rep.set("ok_frac", 1-ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.set("bandwidth_ratio", bandwidthRatio(warmOps[len(warmOps)-1]), "ratio")
	counterMetrics(rep, d, after)
	return rep, nil
}

// drain hands out reqs in order, then nil.
func drain(reqs []*request) func() *request {
	var mu sync.Mutex
	i := 0
	return func() *request {
		mu.Lock()
		defer mu.Unlock()
		if i >= len(reqs) {
			return nil
		}
		i++
		return reqs[i-1]
	}
}
