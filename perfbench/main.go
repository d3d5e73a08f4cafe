// Command perfbench is the placement service's end-to-end benchmark.
// It builds cmd/tdmdserve from the checkout it runs in, starts it as a
// child process on loopback with default flags, drives it with one of
// three workloads, checks every answer against an in-process solve of
// the same submission, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// same load also runs, and afterwards a fixed sample of the workload's
// requests is replayed one at a time through the layers' public calls
// in-process, with spans around each call, to give the per-layer
// metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload online-hot --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and its operation counts.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nproc    int
	server   string // the built tdmdserve binary
	buildDir string
}

// endToEnd names the metrics a user of the service sees that are steady
// enough to gate a change on; every other metric goes with the
// per-layer ones into the traced run's result. On the 2-vCPU VM the
// benchmark was built on, the host's speed drifted by a quarter or more
// within minutes, and every wall-clock rate and latency but set-up time
// spread by up to 0.25-1.1 of its median over ten seeds (see
// README.md), so they are reported but not gated.
var endToEnd = map[string]bool{
	"setup_s": true, "peak_rss_mb": true, "ok_frac": true, "bandwidth_ratio": true,
}

var workloads = map[string]func(config) (*report, error){
	"online-cold": runOnline,
	"online-hot":  runOnline,
	"bulk-ingest": runBulk,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "online-cold, online-hot or bulk-ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = also run the traced replay and report per-layer metrics")
	flag.Parse()
	runWorkload, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload online-cold|online-hot|bulk-ingest, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg.trace = trace == 1
	cfg.nproc = runtime.NumCPU()

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.buildDir = filepath.Join(root, ".bench_build")
	cfg.server = filepath.Join(cfg.buildDir, "tdmdserve")
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := buildServer(root, cfg.server); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version())

	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	// Every metric is printed; the result carries the end-to-end ones
	// without -trace and the per-layer ones with it.
	result := map[string]metric{}
	for _, name := range names {
		m := rep.metrics[name]
		fmt.Printf("%-44s %14.6g %s\n", name, m.Value, m.Unit)
		if endToEnd[name] != cfg.trace {
			result[name] = m
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, result})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// note prints an informational line (sample counts, failures) before
// the result.
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}
