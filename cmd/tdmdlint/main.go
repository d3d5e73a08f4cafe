// Command tdmdlint runs the repository's project-specific static
// analyzers (internal/lint) over the module and exits non-zero when
// any finding survives. It is part of the tier-1 verification gate:
//
//	go run ./cmd/tdmdlint -baseline lint.baseline.json ./...
//
// Flags:
//
//	-list                  print the analyzers and exit
//	-only a,b              run only the named analyzers
//	-skip a,b              run all analyzers except the named ones
//	-json                  emit findings as JSON (the baseline format)
//	-baseline file         suppress findings recorded in the baseline file
//	-lockgraph file        also write the module lock-order graph as
//	                       deterministic DOT to file ("-" for stdout)
//	-escape-baseline file  also run the compiler escape/inlining diff
//	                       (internal/lint/escape) against this baseline
//	-escape-update         regenerate the escape baseline instead of
//	                       diffing (requires -escape-baseline)
//
// Findings print sorted by (file, line, column, analyzer, message),
// so output is byte-identical across runs; -json emits the same order
// and round-trips through -baseline: a finding is suppressed when the
// baseline holds an entry with the same analyzer, file and message
// (line numbers drift with unrelated edits and do not participate).
//
// The interprocedural contract analyzers — solverpurity, detorder,
// goleak, guardedby, lockorder, holdblock — cannot be baselined:
// their findings are contract violations that must be fixed, not
// recorded. A baseline file containing entries for them is itself an
// error. The same holds for "escape": compiler
// escape regressions are accepted only by regenerating the dedicated
// escape baseline (-escape-update), never by suppressing them in the
// analyzer baseline.
//
// Exit codes:
//
//	0  clean — no findings, or every finding matched the baseline
//	1  findings not covered by the baseline were reported
//	2  load failure, usage error, or an invalid baseline file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tdmd/internal/lint"
	"tdmd/internal/lint/escape"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// noBaseline lists the analyzers whose findings may never be
// baselined (see the package comment).
var noBaseline = map[string]bool{
	"solverpurity": true,
	"detorder":     true,
	"goleak":       true,
	"guardedby":    true,
	"lockorder":    true,
	"holdblock":    true,
	"escape":       true,
}

// jsonFinding is one finding in the -json / baseline format.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// report is the top-level -json / baseline document.
type report struct {
	Findings []jsonFinding `json:"findings"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tdmdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	skip := fs.String("skip", "", "comma-separated analyzer names to skip")
	asJSON := fs.Bool("json", false, "emit findings as JSON (the baseline format)")
	baselinePath := fs.String("baseline", "", "baseline file of findings to suppress")
	lockGraph := fs.String("lockgraph", "", "write the module lock-order graph as DOT to this file (\"-\" for stdout)")
	escapeBaseline := fs.String("escape-baseline", "", "escape baseline file; enables the compiler escape/inlining diff")
	escapeUpdate := fs.Bool("escape-update", false, "regenerate the escape baseline instead of diffing")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tdmdlint [-list] [-only a,b] [-skip a,b] [-json] [-baseline file] [-lockgraph file] [-escape-baseline file [-escape-update]] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, ok := selectAnalyzers(analyzers, *only, *skip, stderr)
	if !ok {
		return 2
	}

	if *escapeUpdate && *escapeBaseline == "" {
		fmt.Fprintln(stderr, "tdmdlint: -escape-update requires -escape-baseline")
		return 2
	}

	var baseline map[baselineKey]bool
	if *baselinePath != "" {
		var err error
		baseline, err = readBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "tdmdlint: %v\n", err)
			return 2
		}
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "tdmdlint: %v\n", err)
		return 2
	}
	pkgs, err := lint.Load(dir, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "tdmdlint: %v\n", err)
		return 2
	}

	if *lockGraph != "" {
		if err := writeLockGraph(*lockGraph, dir, pkgs, stdout); err != nil {
			fmt.Fprintf(stderr, "tdmdlint: %v\n", err)
			return 2
		}
	}

	findings := lint.Run(pkgs, analyzers)
	for i := range findings {
		findings[i].Pos.Filename = relPath(dir, findings[i].Pos.Filename)
	}
	if *escapeBaseline != "" {
		escFindings, code := runEscape(dir, *escapeBaseline, *escapeUpdate, stderr)
		if code != 0 {
			return code
		}
		findings = append(findings, escFindings...)
	}

	// Relativizing can reorder file names; restore the canonical order
	// so output bytes are stable regardless of the working directory.
	lint.SortFindings(findings)
	findings, suppressed := applyBaseline(findings, baseline)

	if *asJSON {
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "tdmdlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if suppressed > 0 {
		fmt.Fprintf(stderr, "tdmdlint: %d finding(s) suppressed by baseline\n", suppressed)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "tdmdlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// selectAnalyzers applies -only/-skip to the full suite. The two
// flags compose (-only picks the set, -skip then removes from it);
// either flag naming an unknown analyzer is a usage error.
func selectAnalyzers(all []*lint.Analyzer, only, skip string, stderr io.Writer) ([]*lint.Analyzer, bool) {
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	selected := all
	if only != "" {
		selected = nil
		for _, name := range strings.Split(only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "tdmdlint: unknown analyzer %q (see -list)\n", name)
				return nil, false
			}
			selected = append(selected, a)
		}
	}
	if skip != "" {
		drop := make(map[string]bool)
		for _, name := range strings.Split(skip, ",") {
			name = strings.TrimSpace(name)
			if _, ok := byName[name]; !ok {
				fmt.Fprintf(stderr, "tdmdlint: unknown analyzer %q (see -list)\n", name)
				return nil, false
			}
			drop[name] = true
		}
		kept := make([]*lint.Analyzer, 0, len(selected))
		for _, a := range selected {
			if !drop[a.Name] {
				kept = append(kept, a)
			}
		}
		selected = kept
	}
	return selected, true
}

// writeLockGraph dumps the module lock-order graph as DOT. Edges come
// out of lint.LockOrderEdges already sorted and deduplicated, and the
// positions are working-directory-relative, so the bytes are stable
// across runs and machines — the file is designed to be diffed and
// archived as a CI artifact.
func writeLockGraph(path, dir string, pkgs []*lint.Package, stdout io.Writer) error {
	g := lint.BuildGraph(pkgs)
	var b strings.Builder
	b.WriteString("digraph lockorder {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, e := range lint.LockOrderEdges(g) {
		pos := e.Pos
		pos.Filename = relPath(dir, pos.Filename)
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.From, e.To, pos.String())
	}
	b.WriteString("}\n")
	if path == "-" {
		_, err := io.WriteString(stdout, b.String())
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// runEscape executes the compiler escape/inlining layer: collect
// current diagnostics for the gated packages, then either regenerate
// the baseline (update mode — never a failure) or diff against it and
// return the regressions as findings under the "escape" analyzer
// name. A non-zero code reports an infrastructure error, not a
// finding.
func runEscape(dir, baselinePath string, update bool, stderr io.Writer) ([]lint.Finding, int) {
	var base escape.Report
	if !update {
		// Validate the baseline before paying for the compile.
		var err error
		base, err = escape.ReadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "tdmdlint: %v\n", err)
			return nil, 2
		}
	}
	cur, err := escape.Collect(dir, escape.Packages)
	if err != nil {
		fmt.Fprintf(stderr, "tdmdlint: %v\n", err)
		return nil, 2
	}
	if update {
		if err := escape.WriteBaseline(baselinePath, cur); err != nil {
			fmt.Fprintf(stderr, "tdmdlint: %v\n", err)
			return nil, 2
		}
		fmt.Fprintf(stderr, "tdmdlint: escape baseline %s updated from %d findings\n",
			baselinePath, len(cur.Findings))
		return nil, 0
	}
	fresh, err := escape.Diff(cur, base)
	if err != nil {
		fmt.Fprintf(stderr, "tdmdlint: %v\n", err)
		return nil, 2
	}
	out := make([]lint.Finding, 0, len(fresh))
	for _, f := range fresh {
		out = append(out, lint.Finding{
			Analyzer: "escape",
			Pos:      token.Position{Filename: f.File, Line: f.Line, Column: f.Col},
			Message: string(f.Kind) + " regression vs " + filepath.Base(baselinePath) +
				": " + f.Message,
		})
	}
	return out, 0
}

// baselineKey identifies a finding across unrelated edits: the line
// moves, the analyzer/file/message triple does not.
type baselineKey struct {
	analyzer, file, message string
}

// readBaseline parses and validates a baseline file.
func readBaseline(path string) (map[baselineKey]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %v", err)
	}
	var rep report
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("baseline %s: %v", path, err)
	}
	keys := make(map[baselineKey]bool, len(rep.Findings))
	for _, f := range rep.Findings {
		if noBaseline[f.Analyzer] {
			return nil, fmt.Errorf("baseline %s: analyzer %q findings cannot be baselined — fix the violation instead",
				path, f.Analyzer)
		}
		keys[baselineKey{f.Analyzer, f.File, f.Message}] = true
	}
	return keys, nil
}

// applyBaseline drops findings recorded in the baseline, reporting
// how many were suppressed.
func applyBaseline(findings []lint.Finding, baseline map[baselineKey]bool) ([]lint.Finding, int) {
	if len(baseline) == 0 {
		return findings, 0
	}
	kept := findings[:0]
	suppressed := 0
	for _, f := range findings {
		if baseline[baselineKey{f.Analyzer, f.Pos.Filename, f.Message}] {
			suppressed++
			continue
		}
		kept = append(kept, f)
	}
	return kept, suppressed
}

// writeJSON emits the findings in the baseline format. The findings
// array is always present (never null) so an empty run round-trips.
func writeJSON(w io.Writer, findings []lint.Finding) error {
	rep := report{Findings: make([]jsonFinding, 0, len(findings))}
	for _, f := range findings {
		rep.Findings = append(rep.Findings, jsonFinding{
			Analyzer: f.Analyzer,
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Message:  f.Message,
		})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// relPath shortens absolute file names to working-directory-relative
// ones for readable, clickable findings.
func relPath(dir, name string) string {
	if rel, err := filepath.Rel(dir, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
