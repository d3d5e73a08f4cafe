// Command tdmdlint runs the repository's project-specific static
// analyzers (internal/lint) over the module and exits non-zero when
// any finding survives. It is part of the tier-1 verification gate:
//
//	go run ./cmd/tdmdlint -escape-baseline escape.baseline.json ./...
//
// Flags:
//
//	-list                  print the analyzers and exit
//	-only a,b              run only the named analyzers
//	-json                  emit findings as JSON
//	-lockgraph file        also write the module lock-order graph as
//	                       deterministic DOT to file ("-" for stdout)
//	-escape-baseline file  also run the compiler escape/inlining diff
//	                       (internal/lint/escape) against this baseline
//	-escape-update         regenerate the escape baseline instead of
//	                       diffing (requires -escape-baseline)
//
// Findings print sorted by (file, line, column, analyzer, message),
// so output is byte-identical across runs; -json emits the same order.
// Every finding fails the run: there is no suppression list. Compiler
// escape regressions are accepted only by regenerating the dedicated
// escape baseline (-escape-update).
//
// Exit codes:
//
//	0  clean — no findings
//	1  findings were reported
//	2  load failure, usage error, or an invalid escape baseline
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

// jsonFinding is one finding in the -json format.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// report is the top-level -json document.
type report struct {
	Findings []jsonFinding `json:"findings"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tdmdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit findings as JSON")
	lockGraph := fs.String("lockgraph", "", "write the module lock-order graph as DOT to this file (\"-\" for stdout)")
	escapeBaseline := fs.String("escape-baseline", "", "escape baseline file; enables the compiler escape/inlining diff")
	escapeUpdate := fs.Bool("escape-update", false, "regenerate the escape baseline instead of diffing")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tdmdlint [-list] [-only a,b] [-json] [-lockgraph file] [-escape-baseline file [-escape-update]] [packages]")
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
	analyzers, ok := selectAnalyzers(analyzers, *only, stderr)
	if !ok {
		return 2
	}

	if *escapeUpdate && *escapeBaseline == "" {
		fmt.Fprintln(stderr, "tdmdlint: -escape-update requires -escape-baseline")
		return 2
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
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "tdmdlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// selectAnalyzers applies -only to the full suite; naming an unknown
// analyzer is a usage error.
func selectAnalyzers(all []*lint.Analyzer, only string, stderr io.Writer) ([]*lint.Analyzer, bool) {
	if only == "" {
		return all, true
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var selected []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(stderr, "tdmdlint: unknown analyzer %q (see -list)\n", name)
			return nil, false
		}
		selected = append(selected, a)
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

// writeJSON emits the findings as JSON. The findings array is always
// present (never null), so an empty run still decodes to a report.
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
