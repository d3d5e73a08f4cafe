package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// quiet runs a timed window with the benchmark's own garbage collector
// off, so its collections never compete with the server for the CPUs.
// The windows allocate little: responses and connection state.
func quiet(f func()) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	f()
}

// setupReps is how many times a run starts a fresh server and warms it
// up; setup_s is the median, and the last server is the one measured.
const setupReps = 5

// setUp starts the server setupReps times, each followed by warmup, and
// returns the last server with every repetition's setup time (exec to
// ready, plus the warm-up) and operations.
func setUp(cfg config, client *http.Client, warmup func(*server) ([]*op, error)) (*server, []time.Duration, [][]*op, error) {
	var srv *server
	var setups []time.Duration
	var ops [][]*op
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
			client.CloseIdleConnections()
		}
		s, err := startServer(cfg.server, client)
		if err != nil {
			return nil, nil, nil, err
		}
		srv = s
		var w []*op
		t0 := time.Now()
		quiet(func() { w, err = warmup(s) })
		if err != nil {
			s.stop()
			return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, s.ready+time.Since(t0))
		ops = append(ops, w)
	}
	return srv, setups, ops, nil
}

// tally checks every operation, prints each failure with its request
// id, and returns how many failed. An operation fails on a transport
// error, a status other than want, or an answer the check rejects.
func tally(ops []*op, want int, check func(*op) error) int {
	failed := 0
	for _, o := range ops {
		err := o.err
		if err == nil && o.status != want {
			err = fmt.Errorf("status %d: %s", o.status, strings.TrimSpace(string(o.body)))
		}
		if err == nil && check != nil {
			err = check(o)
		}
		if err != nil {
			failed++
			note("FAILED request %d: %v", o.req.id, err)
			o.err = err
		}
	}
	return failed
}

// checkSolve parses an /api/solve response body (or a done job's
// result) and checks it.
func checkSolve(o *op) error {
	var a answer
	if err := json.Unmarshal(o.body, &a); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	return checkAnswer(o.req, a)
}

// windowedRate is the median, over the whole one-second windows of a
// loop that started at start and ran for elapsed, of the weight of the
// correct operations completed in each window. A slow spell of the
// shared machine then moves it less than a total over the loop would.
func windowedRate(ops []*op, start time.Time, elapsed time.Duration, weight func(*op) float64) float64 {
	per := make([]float64, max(1, int(elapsed/time.Second)))
	for _, o := range ops {
		if w := int(o.done.Sub(start) / time.Second); o.err == nil && w < len(per) {
			per[w] += weight(o)
		}
	}
	if elapsed < time.Second {
		return per[0] / elapsed.Seconds()
	}
	return median(per)
}

// bandwidthRatio is Σ returned bandwidth ÷ Σ raw demand over the
// correct answers among ops.
func bandwidthRatio(ops []*op) float64 {
	var bw, raw float64
	for _, o := range ops {
		if o.err == nil {
			bw += o.req.want.bandwidth
			raw += o.req.want.raw
		}
	}
	return ratio(bw, raw)
}

// latencyMetrics reports open-loop p50 and the p99 (or the highest
// percentile the sample supports) and prints the sample count.
func latencyMetrics(rep *report, ops []*op, what string) {
	lat := make([]time.Duration, len(ops))
	late := make([]time.Duration, len(ops))
	for i, o := range ops {
		lat[i] = o.latency()
		late[i] = o.sent.Sub(o.due)
	}
	sorted := sortDurations(lat)
	p, ok := supportedPercentile(len(sorted), 99)
	if !ok {
		p = 100
	}
	rep.set("latency_p50_ms", ms(percentile(sorted, 50)), "ms")
	rep.set("latency_p99_ms", ms(percentile(sorted, p)), "ms")
	lateSorted := sortDurations(late)
	note("open loop: %d %s, latency_p99_ms is p%.2f with %d samples beyond it; generator lateness p50 %.3f ms",
		len(ops), what, p, tailBeyond(sorted, p), ms(percentile(lateSorted, 50)))
	rep.set("loadgen.late_p99_ms", ms(percentile(lateSorted, 99)), "ms")
}

// the per-layer names the benchmark reports. Solver phases and events
// are the pairs this workload mix emits; one a workload does not
// exercise reads 0.
var (
	solverAlgs   = []string{"dp", "hat", "gtp", "best-effort", "gtp-ls", "gtp-lazy"}
	solverPhases = [][2]string{
		{"dp", "tables"}, {"dp", "trace"}, {"hat", "merge"}, {"gtp", "cover"}, {"gtp", "spend"},
		{"best-effort", "repair"}, {"gtp-ls", "cover"}, {"gtp-ls", "spend"}, {"gtp-ls", "refine"},
		{"gtp-lazy", "cover"},
	}
	solverEvents = [][2]string{
		{"hat", "merges"}, {"gtp", "deployments"}, {"best-effort", "repair_iterations"},
		{"gtp-ls", "deployments"}, {"gtp-ls", "rounds"}, {"gtp-ls", "swaps"}, {"gtp-lazy", "deployments"},
	}
)

// counterMetrics derives the per-layer counts from the /metrics delta
// of the measured window (after is the scrape that closed it).
func counterMetrics(rep *report, d, after metrics) {
	hits := d["tdmd_serve_cache_hits_total"]
	lookups := hits + d["tdmd_serve_cache_misses_total"] + d["tdmd_serve_coalesced_total"]
	rep.set("serve.engine.cache_hit_ratio", ratio(hits, lookups), "ratio")
	rep.set("serve.engine.coalesced", d["tdmd_serve_coalesced_total"], "count")
	rep.set("serve.engine.evictions", d["tdmd_serve_cache_evictions_total"], "count")
	rep.set("serve.pool.queue_wait_ms", 1000*d.mean("tdmd_serve_queue_wait_seconds"), "ms")
	rep.set("serve.pool.rejected", d["tdmd_serve_rejected_total"], "count")
	solves := d["tdmd_serve_solves_total"]
	rep.set("serve.pool.solves", solves, "count")
	for _, alg := range solverAlgs {
		rep.set("placement.solve_ms."+alg, 1000*d.mean("tdmd_solve_duration_seconds", "algorithm", alg), "ms")
	}
	for _, p := range solverPhases {
		rep.set("placement.phase_ms."+p[0]+"."+p[1],
			1000*d.mean("tdmd_solve_phase_duration_seconds", "algorithm", p[0], "phase", p[1]), "ms")
	}
	for _, e := range solverEvents {
		runs := d[series("tdmd_solve_duration_seconds_count", "algorithm", e[0])]
		rep.set("placement.events_per_solve."+e[0]+"."+e[1],
			ratio(d[series("tdmd_solve_events_total", "algorithm", e[0], "event", e[1])], runs), "count")
	}
	sh, sm := d["tdmd_netsim_state_cache_hits_total"], d["tdmd_netsim_state_cache_misses_total"]
	rep.set("netsim.state_cache_hit_ratio", ratio(sh, sh+sm), "ratio")
	rep.set("netsim.states_built_per_solve", ratio(d["tdmd_netsim_states_built_total"], solves), "count")
	rep.set("netsim.instance_bytes", after["tdmd_instance_bytes"], "bytes")
	rep.set("tdmd.stream.bytes_per_flow", after["tdmd_ingest_bytes_per_flow"], "bytes")
}

// requireSeries fails when a series the metrics above read is missing
// from a scrape, so a renamed or unparsed series cannot silently read 0.
func requireSeries(m metrics, keys ...string) error {
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return fmt.Errorf("premise: /metrics has no series %s", k)
		}
	}
	return nil
}

// solverSeries lists the histogram series a solver that ran must have.
func solverSeries(algs map[string]bool) []string {
	keys := []string{
		"tdmd_serve_cache_hits_total", "tdmd_serve_cache_misses_total", "tdmd_serve_coalesced_total",
		"tdmd_serve_queue_wait_seconds_sum", "tdmd_serve_queue_wait_seconds_count",
	}
	names := make([]string, 0, len(algs))
	for a := range algs {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		keys = append(keys,
			series("tdmd_solve_duration_seconds_sum", "algorithm", a),
			series("tdmd_solve_duration_seconds_count", "algorithm", a))
	}
	return keys
}

// ledger reports the traced replay's layer self times and the HTTP
// round trip of the same sample.
func ledger(rep *report, t *tracer, httpOps []*op) {
	means, layerSum := layerMeans(t.spans)
	for _, l := range layerNames {
		rep.set(l+"_ms", means[l], "ms")
	}
	var total time.Duration
	for _, o := range httpOps {
		total += o.done.Sub(o.sent)
	}
	httpMS := ms(total) / math.Max(1, float64(len(httpOps)))
	rep.set("ledger.http_ms", httpMS, "ms")
	rep.set("ledger.residual_ms", httpMS-layerSum, "ms")
	note("ledger: %d requests traced, mean layer sum %.3f ms, mean HTTP %.3f ms", len(httpOps), layerSum, httpMS)
}

// layerNames are every traced layer; a workload reports 0 for the ones
// its path does not cross.
var layerNames = []string{
	"tdmd.spec.decode", "tdmd.spec.build", "tdmd.stream.read", "tdmd.stream.build",
	"serve.fingerprint", "serve.engine.submit", "serve.engine.wait",
}
