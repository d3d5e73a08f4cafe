package escape

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// A condensed slice of real `go build -gcflags=-m=2` output: section
// headers, inlining successes and failures, escape facts with their
// indented explanations, and non-findings that must be ignored.
const sampleOutput = `# tdmd/internal/netsim
internal/netsim/netsim.go:123:6: can inline Plan.Has with cost 5 as: method(Plan) func(graph.NodeID) bool { return p.set[v] }
internal/netsim/netsim.go:202:6: cannot inline (*Instance).assertAllocation: function too complex: cost 422 exceeds budget 80
internal/netsim/state.go:93:12: make([]bool, in.G.NumNodes()) escapes to heap:
internal/netsim/state.go:93:12:   flow: s = &{storage for make([]bool, in.G.NumNodes())}:
internal/netsim/state.go:93:12:     from make([]bool, in.G.NumNodes()) (spill) at internal/netsim/state.go:93:12
internal/netsim/state.go:101:2: moved to heap: s
internal/netsim/netsim.go:60:16: in does not escape
internal/netsim/netsim.go:61:9: leaking param: flows
# tdmd/internal/placement
internal/placement/gtp.go:40:6: cannot inline GTP: unhandled op DEFER
internal/placement/gtp.go:77:14: &lazyCand{...} escapes to heap
`

func TestParseExtractsAndNormalizes(t *testing.T) {
	got := Parse(sampleOutput)
	want := []Finding{
		{Kind: KindEscape, File: "internal/netsim/state.go", Line: 93, Col: 12,
			Message: "make([]bool, in.G.NumNodes()) escapes to heap"},
		{Kind: KindEscape, File: "internal/netsim/state.go", Line: 101, Col: 2,
			Message: "moved to heap: s"},
		{Kind: KindNoInline, File: "internal/netsim/netsim.go", Line: 202, Col: 6,
			Message: "cannot inline (*Instance).assertAllocation: function too complex"},
		{Kind: KindNoInline, File: "internal/placement/gtp.go", Line: 40, Col: 6,
			Message: "cannot inline GTP: unhandled op DEFER"},
		{Kind: KindEscape, File: "internal/placement/gtp.go", Line: 77, Col: 14,
			Message: "&lazyCand{...} escapes to heap"},
	}
	if len(got) != len(want) {
		t.Fatalf("Parse returned %d findings, want %d:\n%v", len(got), len(want), got)
	}
	// Parse sorts by position; compare as sets keyed by everything.
	index := make(map[Finding]bool, len(got))
	for _, f := range got {
		index[f] = true
	}
	for _, w := range want {
		if !index[w] {
			t.Errorf("missing finding %+v in:\n%v", w, got)
		}
	}
}

func TestParseIsDeterministicallySorted(t *testing.T) {
	got := Parse(sampleOutput)
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Fatalf("findings not position-sorted: %+v before %+v", a, b)
		}
	}
	// The indented explanation lines repeat the position; they must not
	// produce duplicate findings.
	seen := make(map[string]int)
	for _, f := range got {
		seen[f.Key()]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("finding %q appears %d times", k, n)
		}
	}
}

func TestDiffFindsOnlyNewKeys(t *testing.T) {
	base := Report{GoVersion: runtime.Version(), Findings: Parse(sampleOutput)}
	cur := Report{GoVersion: runtime.Version(), Findings: append(Parse(sampleOutput), Finding{
		Kind: KindEscape, File: "internal/netsim/state.go", Line: 7, Col: 2,
		Message: "moved to heap: fresh",
	})}
	fresh, err := Diff(cur, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 1 || fresh[0].Message != "moved to heap: fresh" {
		t.Fatalf("Diff = %v, want just the new escape", fresh)
	}
	// Line drift alone is not a regression: same key, moved position.
	moved := base
	moved.Findings = append([]Finding(nil), base.Findings...)
	moved.Findings[0].Line += 40
	fresh, err = Diff(moved, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 0 {
		t.Fatalf("line drift reported as regression: %v", fresh)
	}
}

func TestDiffRejectsToolchainMismatch(t *testing.T) {
	base := Report{GoVersion: "go1.0"}
	cur := Report{GoVersion: runtime.Version()}
	if _, err := Diff(cur, base); err == nil || !strings.Contains(err.Error(), "go1.0") {
		t.Fatalf("Diff accepted a baseline from another toolchain: %v", err)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	rep := Report{
		GoVersion: runtime.Version(),
		Packages:  []string{"./internal/netsim"},
		Findings:  Parse(sampleOutput),
	}
	path := filepath.Join(t.TempDir(), "escape.json")
	if err := WriteBaseline(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.GoVersion != rep.GoVersion || len(got.Findings) != len(rep.Findings) {
		t.Fatalf("round trip changed the report: %+v", got)
	}
	fresh, err := Diff(rep, got)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 0 {
		t.Fatalf("round trip introduced regressions: %v", fresh)
	}
}

// TestBaselineWritesKeysOnly: the written baseline holds each key once,
// without positions, sorted by file, kind and message, so moving a
// line leaves the file byte-identical; the positional form still reads
// back to the same key set.
func TestBaselineWritesKeysOnly(t *testing.T) {
	fs := Parse(sampleOutput)
	dup := fs[0]
	dup.Line, dup.Col = dup.Line+100, 1 // same key, another position
	rep := Report{GoVersion: runtime.Version(), Findings: append(fs, dup)}
	dir := t.TempDir()
	path := filepath.Join(dir, "escape.json")
	if err := WriteBaseline(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"line"`) || strings.Contains(string(data), `"col"`) {
		t.Fatalf("baseline records positions:\n%s", data)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Findings) != len(fs) {
		t.Fatalf("%d findings written, want %d distinct keys", len(got.Findings), len(fs))
	}
	for i := 1; i < len(got.Findings); i++ {
		a, b := got.Findings[i-1], got.Findings[i]
		if a.File > b.File || a.File == b.File && (a.Kind > b.Kind || a.Kind == b.Kind && a.Message >= b.Message) {
			t.Fatalf("findings not sorted by key: %+v before %+v", a, b)
		}
	}
	moved := Report{GoVersion: rep.GoVersion, Findings: append([]Finding(nil), fs...)}
	for i := range moved.Findings {
		moved.Findings[i].Line += 7
	}
	again := filepath.Join(dir, "moved.json")
	if err := WriteBaseline(again, moved); err != nil {
		t.Fatal(err)
	}
	if movedData, err := os.ReadFile(again); err != nil || string(movedData) != string(data) {
		t.Fatalf("moved lines changed the baseline (%v):\n%s", err, movedData)
	}
	positional := filepath.Join(dir, "positional.json")
	writeFile(t, positional, `{"go_version": "`+runtime.Version()+`", "packages": [], "findings": [`+
		`{"kind": "escape", "file": "internal/netsim/state.go", "line": 101, "col": 2, "message": "moved to heap: s"}]}`)
	old, err := ReadBaseline(positional)
	if err != nil {
		t.Fatal(err)
	}
	cur := Report{GoVersion: runtime.Version(), Findings: []Finding{
		{Kind: KindEscape, File: "internal/netsim/state.go", Line: 5, Col: 3, Message: "moved to heap: s"}}}
	if fresh, err := Diff(cur, old); err != nil || len(fresh) != 0 {
		t.Fatalf("positional baseline misses %v (%v)", fresh, err)
	}
}

func TestReadBaselineRejectsUnknownFieldsAndKinds(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	writeFile(t, bad, `{"go_version": "`+runtime.Version()+`", "surprise": 1, "findings": []}`)
	if _, err := ReadBaseline(bad); err == nil {
		t.Fatal("unknown field accepted")
	}
	writeFile(t, bad, `{"go_version": "x", "findings": [{"kind": "warp", "file": "a.go", "line": 1, "col": 1, "message": "m"}]}`)
	if _, err := ReadBaseline(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestCollectLive runs the real compiler over the gated packages and
// sanity-checks the harvest; it doubles as the pin that the gated set
// actually produces diagnostics (an empty harvest would mean the
// parsing or the flags silently broke).
func TestCollectLive(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	root := filepath.Join("..", "..", "..")
	rep, err := Collect(root, Packages)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoVersion != runtime.Version() {
		t.Errorf("report version %q, want %q", rep.GoVersion, runtime.Version())
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no diagnostics harvested from the solver core — parsing broke?")
	}
	var esc, noinl int
	for _, f := range rep.Findings {
		switch f.Kind {
		case KindEscape:
			esc++
		case KindNoInline:
			noinl++
		default:
			t.Fatalf("unknown kind %q", f.Kind)
		}
		if !strings.HasPrefix(f.File, "internal/") {
			t.Fatalf("finding outside the gated set: %+v", f)
		}
	}
	if esc == 0 || noinl == 0 {
		t.Fatalf("expected both kinds in the harvest, got escape=%d noinline=%d", esc, noinl)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
