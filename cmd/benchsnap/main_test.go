package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: tdmd
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFullVsIncrementalGTP/full    	      81	  15235416 ns/op	 2063466 B/op	     305 allocs/op
BenchmarkFullVsIncrementalGTP/incremental         	     771	   1537430 ns/op	   68065 B/op	      28 allocs/op
BenchmarkSnapStateMarginalGain-8   	398546100	         3.065 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	tdmd	7.358s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(".", sampleBenchOutput)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d entries, want 3: %v", len(got), got)
	}
	first := got[0]
	if first.Name != "BenchmarkFullVsIncrementalGTP/full" ||
		first.NsOp != 15235416 || first.BOp != 2063466 || first.AllocsOp != 305 {
		t.Fatalf("first entry = %+v", first)
	}
	// The -8 GOMAXPROCS suffix is machine-dependent and must not leak
	// into snapshot keys.
	if got[2].Name != "BenchmarkSnapStateMarginalGain" {
		t.Fatalf("suffix not stripped: %q", got[2].Name)
	}
	if got[2].NsOp != 3.065 {
		t.Fatalf("fractional ns/op lost: %v", got[2].NsOp)
	}
}

func snapOf(entries ...Entry) Snapshot {
	return Snapshot{GoVersion: "gotest", Entries: entries}
}

func TestCompareWithinTolerance(t *testing.T) {
	base := snapOf(Entry{Pkg: ".", Name: "B/x", AllocsOp: 100, NsOp: 1000})
	cur := snapOf(Entry{Pkg: ".", Name: "B/x", AllocsOp: 124, NsOp: 5000}) // +24% < 25%, ns ignored
	var out strings.Builder
	if problems := compare(&out, cur, base, 0.25, 0); problems != 0 {
		t.Fatalf("within-tolerance run reported %d problems:\n%s", problems, out.String())
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	base := snapOf(Entry{Pkg: ".", Name: "B/x", AllocsOp: 100})
	cur := snapOf(Entry{Pkg: ".", Name: "B/x", AllocsOp: 130})
	var out strings.Builder
	if problems := compare(&out, cur, base, 0.25, 0); problems != 1 {
		t.Fatalf("regression not flagged (%d problems):\n%s", problems, out.String())
	}
	if !strings.Contains(out.String(), "ALLOC REGRESSION") {
		t.Fatalf("output should name the regression:\n%s", out.String())
	}
}

func TestCompareAbsoluteSlackCoversZeroBaselines(t *testing.T) {
	// A 0-alloc baseline has no relative headroom; the absolute slack
	// is what keeps noise out without letting real allocations in.
	base := snapOf(Entry{Pkg: ".", Name: "B/zero", AllocsOp: 0})
	within := snapOf(Entry{Pkg: ".", Name: "B/zero", AllocsOp: 2})
	var out strings.Builder
	if problems := compare(&out, within, base, 0.25, 3); problems != 0 {
		t.Fatalf("slack-covered run reported %d problems:\n%s", problems, out.String())
	}
	beyond := snapOf(Entry{Pkg: ".", Name: "B/zero", AllocsOp: 4})
	out.Reset()
	if problems := compare(&out, beyond, base, 0.25, 3); problems != 1 {
		t.Fatalf("4 allocs over a 0 baseline must fail (%d problems):\n%s", problems, out.String())
	}
}

func TestCompareFlagsMissingAndNew(t *testing.T) {
	base := snapOf(
		Entry{Pkg: ".", Name: "B/gone", AllocsOp: 1},
		Entry{Pkg: ".", Name: "B/kept", AllocsOp: 1},
	)
	cur := snapOf(
		Entry{Pkg: ".", Name: "B/kept", AllocsOp: 1},
		Entry{Pkg: ".", Name: "B/fresh", AllocsOp: 1},
	)
	var out strings.Builder
	if problems := compare(&out, cur, base, 0.25, 0); problems != 2 {
		t.Fatalf("missing+new = %d problems, want 2:\n%s", problems, out.String())
	}
	if !strings.Contains(out.String(), "MISSING") || !strings.Contains(out.String(), "NEW") {
		t.Fatalf("output should show both mismatch kinds:\n%s", out.String())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	snap := snapOf(
		Entry{Pkg: "./internal/netsim", Name: "B/b", AllocsOp: 2, NsOp: 10.5, BOp: 64},
		Entry{Pkg: ".", Name: "B/a", AllocsOp: 1},
	)
	if err := writeSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.GoVersion != "gotest" {
		t.Fatalf("round trip = %+v", got)
	}
	// Written sorted by (pkg, name) so the checked-in file is diffable.
	if got.Entries[0].Pkg != "." {
		t.Fatalf("entries not sorted: %+v", got.Entries)
	}
	var out strings.Builder
	if problems := compare(&out, got, snap, 0, 0); problems != 0 {
		t.Fatalf("round trip changed the numbers:\n%s", out.String())
	}
}

func TestReadSnapshotRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, []byte(`{"go_version": "x", "surprise": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshot(path); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestRunUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{}, &out, &errOut); code != 2 {
		t.Fatalf("neither -update nor -check: run = %d, want 2", code)
	}
	if code := run([]string{"-update", "-check"}, &out, &errOut); code != 2 {
		t.Fatalf("both modes: run = %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: run = %d, want 2", code)
	}
}

// TestRepoSnapshotsParse pins that every registered suite's checked-in
// snapshot stays readable and has entries for each suite package.
func TestRepoSnapshotsParse(t *testing.T) {
	for name, set := range suiteSets {
		snap, err := readSnapshot(filepath.Join("..", "..", set.file))
		if err != nil {
			t.Fatalf("suite %s: %v", name, err)
		}
		pkgs := map[string]bool{}
		for _, e := range snap.Entries {
			pkgs[e.Pkg] = true
		}
		for _, s := range set.suites {
			if !pkgs[s.Pkg] {
				t.Errorf("suite %s: snapshot has no entries for %+v", name, s)
			}
		}
	}
}

func TestRunRejectsUnknownSuite(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-check", "-suite", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown suite: run = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown suite") {
		t.Fatalf("error should name the problem:\n%s", errOut.String())
	}
}

// The ingest benchmarks report a custom bytes/flow metric; it must be
// parsed into its own column, not dropped.
func TestParseBenchBytesFlow(t *testing.T) {
	const out = `BenchmarkIngestStream-8   	      42	  26913475 ns/op	        32.60 bytes/flow	 6460968 B/op	    3905 allocs/op
`
	got, err := parseBench(".", out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].BytesFlow != 32.60 {
		t.Fatalf("bytes/flow not parsed: %+v", got)
	}
}

// The serve suite's rows are sub-benchmarks: each keeps its own name
// (minus the GOMAXPROCS suffix) and gates its own allocs/op. A custom
// unit outside the snapshot schema is dropped, not misread.
func TestParseBenchServeMetrics(t *testing.T) {
	const out = `BenchmarkServeSolve/hit-2         	     217	   5440849 ns/op	  910316 B/op	    8377 allocs/op
BenchmarkServeSolve/fresh-2       	     164	   6955253 ns/op	         3.000 widgets/op	  978867 B/op	    8342 allocs/op
`
	got, err := parseBench("./internal/serve", out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d entries, want 2: %v", len(got), got)
	}
	want := []Entry{
		{Pkg: "./internal/serve", Name: "BenchmarkServeSolve/hit", NsOp: 5440849, BOp: 910316, AllocsOp: 8377},
		{Pkg: "./internal/serve", Name: "BenchmarkServeSolve/fresh", NsOp: 6955253, BOp: 978867, AllocsOp: 8342},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// An allocation regression on one row fails the check by itself.
	grown := snapOf(want[0], Entry{Pkg: want[1].Pkg, Name: want[1].Name, AllocsOp: 11000})
	var outBuf strings.Builder
	if problems := compare(&outBuf, grown, snapOf(want...), 0.25, 3); problems != 1 {
		t.Fatalf("fresh-row regression = %d problems, want 1:\n%s", problems, outBuf.String())
	}
}

func TestCompareGatesBytesFlow(t *testing.T) {
	base := snapOf(Entry{Pkg: ".", Name: "B/ingest", AllocsOp: 10, BytesFlow: 30})
	grown := snapOf(Entry{Pkg: ".", Name: "B/ingest", AllocsOp: 10, BytesFlow: 45})
	var out strings.Builder
	if problems := compare(&out, grown, base, 0.25, 0); problems != 1 {
		t.Fatalf("bytes/flow growth not flagged (%d problems):\n%s", problems, out.String())
	}
	if !strings.Contains(out.String(), "BYTES/FLOW REGRESSION") {
		t.Fatalf("output should name the regression:\n%s", out.String())
	}
	within := snapOf(Entry{Pkg: ".", Name: "B/ingest", AllocsOp: 10, BytesFlow: 33})
	out.Reset()
	if problems := compare(&out, within, base, 0.25, 0); problems != 0 {
		t.Fatalf("within-tolerance bytes/flow flagged (%d problems):\n%s", problems, out.String())
	}
}
