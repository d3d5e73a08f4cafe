// Package escape is the third allocation-discipline layer behind
// cmd/tdmdlint (next to the hotalloc and mapstate analyzers): instead
// of pattern-matching source, it asks the compiler. It runs
//
//	go build -gcflags=-m=2 <packages>
//
// over the solver-core packages, parses the escape-analysis and
// inlining diagnostics into structured findings, and diffs them
// against a checked-in baseline (escape.baseline.json). Two kinds of
// regression fail the build:
//
//   - a NEW heap escape ("... escapes to heap", "moved to heap: x") —
//     an allocation the compiler used to avoid, or a new allocation
//     site the benchmarks have not priced in;
//   - LOST inlining ("cannot inline f: ...") — a function that grew
//     past the inlining budget, which on the solver fast path also
//     means its arguments start escaping.
//
// The baseline is regenerated deliberately (tdmdlint -escape-update)
// when an escape is accepted — a cold-path convenience, a salvage
// branch — and the diff is reviewed like any other checked-in change.
// Messages are normalized (inlining cost numbers stripped, trailing
// detail colons removed) and keyed by (kind, file, message) without
// line numbers, so unrelated edits do not churn the baseline; the
// compiler replays cached diagnostics, so repeated runs are cheap.
//
// The gc toolchain's diagnostic wording varies across releases; the
// baseline is only meaningful for the Go version that wrote it (CI
// pins one), which is why Collect records the version alongside the
// findings and Diff refuses a mismatched baseline.
package escape

import (
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Packages is the gated package set: the solver core, where a new
// escape is a performance regression by definition.
var Packages = []string{"./internal/netsim", "./internal/placement"}

// Kind classifies a diagnostic.
type Kind string

// The diagnostic kinds.
const (
	// KindEscape is a value the compiler moves to the heap.
	KindEscape Kind = "escape"
	// KindNoInline is a function the compiler refuses to inline.
	KindNoInline Kind = "noinline"
)

// Finding is one normalized compiler diagnostic. Baseline findings
// carry no position (Line and Col are 0): only the key is compared.
type Finding struct {
	Kind    Kind   `json:"kind"`
	File    string `json:"file"`
	Line    int    `json:"line,omitempty"`
	Col     int    `json:"col,omitempty"`
	Message string `json:"message"`
}

// Key identifies a finding across unrelated edits: line numbers move,
// the (kind, file, message) triple does not.
func (f Finding) Key() string {
	return string(f.Kind) + "\x00" + f.File + "\x00" + f.Message
}

// Report is the escape.baseline.json document.
type Report struct {
	// GoVersion is runtime.Version() of the toolchain that produced
	// the findings.
	GoVersion string `json:"go_version"`
	// Packages is the package set the findings cover.
	Packages []string  `json:"packages"`
	Findings []Finding `json:"findings"`
}

// Collect compiles the packages from dir with -gcflags=-m=2 and
// returns the parsed, normalized, position-sorted findings.
func Collect(dir string, packages []string) (Report, error) {
	args := append([]string{"build", "-gcflags=-m=2"}, packages...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return Report{}, fmt.Errorf("go build -gcflags=-m=2: %v\n%s", err, out.String())
	}
	return Report{
		GoVersion: runtime.Version(),
		Packages:  append([]string(nil), packages...),
		Findings:  Parse(out.String()),
	}, nil
}

// diagLine matches one compiler diagnostic: a relative file position
// and the message. Indented explanation lines and "# pkg" section
// headers do not match.
var diagLine = regexp.MustCompile(`^([^\s:]+\.go):(\d+):(\d+): (.*)$`)

// inlineCost strips the budget arithmetic from "cannot inline"
// reasons: the cost drifts with every edit, the fact does not.
var inlineCost = regexp.MustCompile(`: cost \d+ exceeds budget \d+`)

// Parse extracts the escape and lost-inlining findings from raw
// -gcflags=-m=2 build output, deduplicated and sorted by position.
func Parse(output string) []Finding {
	seen := make(map[Finding]bool)
	var out []Finding
	for _, line := range strings.Split(output, "\n") {
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg, kind := normalize(m[4])
		if kind == "" {
			continue
		}
		lineNo, errLine := strconv.Atoi(m[2])
		colNo, errCol := strconv.Atoi(m[3])
		if errLine != nil || errCol != nil {
			continue // out-of-range position: not a real diagnostic
		}
		f := Finding{Kind: kind, File: m[1], Line: lineNo, Col: colNo, Message: msg}
		if seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	Sort(out)
	return out
}

// normalize classifies one diagnostic message and strips its unstable
// parts. An empty kind means the line is not a finding (inlining
// successes, "does not escape", parameter leak facts, ...).
func normalize(msg string) (string, Kind) {
	switch {
	case strings.HasPrefix(msg, "cannot inline "):
		return inlineCost.ReplaceAllString(msg, ""), KindNoInline
	case strings.HasPrefix(msg, "moved to heap: "):
		return msg, KindEscape
	case strings.HasSuffix(msg, "escapes to heap:"):
		return strings.TrimSuffix(msg, ":"), KindEscape
	case strings.HasSuffix(msg, "escapes to heap"):
		return msg, KindEscape
	}
	return "", ""
}

// Sort orders findings by (file, line, col, kind, message) — the
// byte-stable reporting order.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Message < b.Message
	})
}

// Diff returns the findings of cur that the baseline does not cover,
// keyed without line numbers. It refuses to compare reports produced
// by different toolchains: diagnostic wording drifts across releases,
// and a silent mismatch would drown the signal in churn.
func Diff(cur, baseline Report) ([]Finding, error) {
	if baseline.GoVersion != cur.GoVersion {
		return nil, fmt.Errorf("baseline written by %s, current toolchain is %s — regenerate with -escape-update",
			baseline.GoVersion, cur.GoVersion)
	}
	known := make(map[string]bool, len(baseline.Findings))
	for _, f := range baseline.Findings {
		known[f.Key()] = true
	}
	var fresh []Finding
	for _, f := range cur.Findings {
		if !known[f.Key()] {
			fresh = append(fresh, f)
		}
	}
	return fresh, nil
}
