// Command benchsnap records and checks the repository's benchmark
// snapshots. Three suites are registered: "solver" (BENCH_solver.json)
// runs the paired solver benchmarks — the root package's
// FullVsIncremental pair and the netsim SnapState primitives, all at
// |V|=200 / |F|≈1500, plus the gtp-lazy solve on the scaled bulk
// shape (placement's BenchmarkGTPLazyBulkShape) and the tree DP on
// online-cold's default tree cell (BenchmarkTreeDP) — "ingest"
// (BENCH_ingest.json) runs the streaming-ingestion benchmarks
// including the million-flow scale row, and "serve" (BENCH_serve.json) sends single /api/solve requests
// through the placement service's HTTP handler (internal/serve's
// BenchmarkServeSolve: one cache hit, one fresh solve). Each suite
// goes through `go test -bench` and its ns/op, B/op, allocs/op and
// the custom bytes/flow metric are parsed out.
//
//	benchsnap -update                 rewrite the snapshot from a fresh run
//	benchsnap -check                  compare a fresh run against the snapshot
//	benchsnap -check -suite ingest    same, for the ingestion suite
//
// Check mode gates allocs/op and bytes/flow only: allocation counts
// are nearly deterministic, so a genuine regression (a new escape, a
// lost preallocation) shows up as a count increase far above the
// tolerance (default 25% + 3 allocs, for b.N-amortized setup noise),
// and bytes/flow is a property of the wire format, not the machine.
// ns/op depends on the machine and is reported for information only.
// A benchmark missing from either side fails the check: the snapshot
// is regenerated deliberately with -update, reviewed like any other
// checked-in change (the same policy as the lint and escape
// baselines).
//
// Exit codes: 0 clean, 1 allocation regression or benchmark-set
// mismatch, 2 usage or infrastructure error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Suite is one `go test -bench` invocation to harvest.
type Suite struct {
	Pkg     string `json:"pkg"`
	Pattern string `json:"pattern"`
}

// suiteSet names one snapshot file and the benchmark set that fills
// it. benchsnap -suite selects one.
type suiteSet struct {
	file   string
	suites []Suite
}

// suiteSets registers the repository's snapshots: "solver" is the
// historical solver-core set; "ingest" is the streaming-ingestion set
// (BenchmarkIngest* in the root package, including the million-flow
// scale row), whose bytes/flow metric is gated alongside allocs/op;
// "serve" is the single-request service path, cache hit and fresh
// solve.
var suiteSets = map[string]suiteSet{
	"solver": {file: "BENCH_solver.json", suites: []Suite{
		{Pkg: ".", Pattern: "BenchmarkFullVsIncremental"},
		{Pkg: "./internal/netsim", Pattern: "BenchmarkSnapState"},
		{Pkg: "./internal/netsim", Pattern: "BenchmarkNewInstance"},
		{Pkg: "./internal/placement", Pattern: "BenchmarkGTPLazyBulkShape"},
		{Pkg: "./internal/placement", Pattern: "BenchmarkTreeDP"},
	}},
	"ingest": {file: "BENCH_ingest.json", suites: []Suite{
		{Pkg: ".", Pattern: "BenchmarkIngest"},
	}},
	"serve": {file: "BENCH_serve.json", suites: []Suite{
		{Pkg: "./internal/serve", Pattern: "BenchmarkServeSolve"},
	}},
}

// Entry is one benchmark's recorded metrics. BytesFlow is the custom
// bytes/flow metric the ingestion benchmarks report (on-disk bytes per
// encoded flow); it is zero for benchmarks that don't emit it.
type Entry struct {
	Pkg       string  `json:"pkg"`
	Name      string  `json:"name"`
	NsOp      float64 `json:"ns_op"`
	BOp       float64 `json:"b_op"`
	AllocsOp  float64 `json:"allocs_op"`
	BytesFlow float64 `json:"bytes_flow,omitempty"`
}

// Snapshot is the BENCH_solver.json document.
type Snapshot struct {
	// GoVersion is the toolchain that produced the numbers; ns/op
	// comparisons across versions are still only informational, but
	// allocation counts can legitimately shift with the compiler.
	GoVersion string  `json:"go_version"`
	Entries   []Entry `json:"entries"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchsnap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	suite := fs.String("suite", "solver", "benchmark suite: solver, ingest or serve")
	file := fs.String("file", "", "snapshot file (default: the suite's, e.g. BENCH_solver.json)")
	update := fs.Bool("update", false, "rewrite the snapshot from a fresh run")
	check := fs.Bool("check", false, "compare a fresh run against the snapshot")
	benchtime := fs.String("benchtime", "", "passed to go test -benchtime (default: go's)")
	tolRel := fs.Float64("tol", 0.25, "allowed relative allocs/op increase")
	tolAbs := fs.Float64("tolabs", 3, "allowed absolute allocs/op increase on top of -tol")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchsnap -update|-check [-suite solver|ingest|serve] [-file F] [-benchtime d]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *update == *check {
		fs.Usage()
		return 2
	}
	set, ok := suiteSets[*suite]
	if !ok {
		fmt.Fprintf(stderr, "benchsnap: unknown suite %q\n", *suite)
		return 2
	}
	if *file == "" {
		*file = set.file
	}

	cur, err := collect(set.suites, *benchtime, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchsnap: %v\n", err)
		return 2
	}
	if *update {
		if err := writeSnapshot(*file, cur); err != nil {
			fmt.Fprintf(stderr, "benchsnap: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchsnap: %s updated (%d benchmarks)\n", *file, len(cur.Entries))
		return 0
	}

	snap, err := readSnapshot(*file)
	if err != nil {
		fmt.Fprintf(stderr, "benchsnap: %v\n", err)
		return 2
	}
	problems := compare(stdout, cur, snap, *tolRel, *tolAbs)
	if problems > 0 {
		fmt.Fprintf(stderr, "benchsnap: %d problem(s) vs %s\n", problems, *file)
		return 1
	}
	fmt.Fprintf(stdout, "benchsnap: allocations within tolerance of %s (%d benchmarks)\n",
		*file, len(snap.Entries))
	return 0
}

// collect runs every suite and merges the parsed entries, sorted.
func collect(suites []Suite, benchtime string, stderr io.Writer) (Snapshot, error) {
	snap := Snapshot{GoVersion: runtime.Version()}
	for _, s := range suites {
		args := []string{"test", "-run", "^$", "-bench", s.Pattern, "-benchmem"}
		if benchtime != "" {
			args = append(args, "-benchtime", benchtime)
		}
		args = append(args, s.Pkg)
		cmd := exec.Command("go", args...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return Snapshot{}, fmt.Errorf("go test -bench %s %s: %v", s.Pattern, s.Pkg, err)
		}
		entries, err := parseBench(s.Pkg, out.String())
		if err != nil {
			return Snapshot{}, err
		}
		if len(entries) == 0 {
			return Snapshot{}, fmt.Errorf("suite %q in %s produced no benchmark lines", s.Pattern, s.Pkg)
		}
		snap.Entries = append(snap.Entries, entries...)
	}
	sortEntries(snap.Entries)
	return snap, nil
}

// gomaxprocsSuffix is the "-8" the testing package appends to
// benchmark names; it varies with the machine and is stripped.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts the metric pairs from `go test -bench` output:
// each benchmark line is name, iteration count, then (value, unit)
// pairs. Units not in the snapshot schema are ignored, and the
// machine-dependent GOMAXPROCS name suffix is removed.
func parseBench(pkg, output string) ([]Entry, error) {
	var out []Entry
	for _, line := range strings.Split(output, "\n") {
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		e := Entry{Pkg: pkg, Name: name}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark line %q: bad value %q", line, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsOp = val
			case "B/op":
				e.BOp = val
			case "allocs/op":
				e.AllocsOp = val
			case "bytes/flow":
				e.BytesFlow = val
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// key identifies a benchmark across runs.
func (e Entry) key() string { return e.Pkg + "\x00" + e.Name }

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].key() < es[j].key() })
}

// compare prints one line per benchmark and counts the problems: an
// allocs/op increase beyond want*(1+tolRel)+tolAbs, or a benchmark
// present on only one side. ns/op deltas are printed, never gated.
func compare(w io.Writer, cur, snap Snapshot, tolRel, tolAbs float64) int {
	curBy := make(map[string]Entry, len(cur.Entries))
	for _, e := range cur.Entries {
		curBy[e.key()] = e
	}
	problems := 0
	for _, want := range snap.Entries {
		got, ok := curBy[want.key()]
		if !ok {
			fmt.Fprintf(w, "MISSING %-55s recorded in snapshot but not produced by the suites\n", want.Name)
			problems++
			continue
		}
		delete(curBy, want.key())
		limit := want.AllocsOp*(1+tolRel) + tolAbs
		status := "ok"
		if got.AllocsOp > limit {
			status = "ALLOC REGRESSION"
			problems++
		}
		// bytes/flow is a property of the wire format, not the machine:
		// the same generator seed produces the same stream, so any
		// growth beyond the relative tolerance is an encoding
		// regression.
		if want.BytesFlow > 0 && got.BytesFlow > want.BytesFlow*(1+tolRel) {
			status = "BYTES/FLOW REGRESSION"
			problems++
		}
		fmt.Fprintf(w, "%-16s %-55s allocs/op %8.0f -> %8.0f (limit %.0f)   ns/op %12.0f -> %12.0f (info)",
			status, got.Name, want.AllocsOp, got.AllocsOp, limit, want.NsOp, got.NsOp)
		if want.BytesFlow > 0 || got.BytesFlow > 0 {
			fmt.Fprintf(w, "   bytes/flow %6.1f -> %6.1f", want.BytesFlow, got.BytesFlow)
		}
		fmt.Fprintln(w)
	}
	// Anything left was benchmarked now but never recorded.
	var fresh []Entry
	for _, e := range curBy {
		fresh = append(fresh, e)
	}
	sortEntries(fresh)
	for _, e := range fresh {
		fmt.Fprintf(w, "NEW     %-55s not in snapshot — record it with -update\n", e.Name)
		problems++
	}
	return problems
}

// readSnapshot parses and validates a snapshot file.
func readSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var snap Snapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		return Snapshot{}, fmt.Errorf("%s: %v", path, err)
	}
	return snap, nil
}

// writeSnapshot writes the checked-in format: indented, sorted,
// trailing newline.
func writeSnapshot(path string, snap Snapshot) error {
	if snap.Entries == nil {
		snap.Entries = []Entry{}
	}
	sortEntries(snap.Entries)
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
