package lint

import (
	"strconv"
	"strings"
)

// AnalyzerInternalBoundary keeps commands and examples on the public
// tdmd facade: they demonstrate and exercise the supported API, so an
// internal import from cmd/ or examples/ either signals a missing
// facade re-export (fix: add one, as extras.go does for the chain,
// set-cover and online APIs) or an internal tool that genuinely works
// on internal machinery, which belongs in the allowlist below.
var AnalyzerInternalBoundary = &Analyzer{
	Name: "internalboundary",
	Doc:  "cmd/ and examples/ import internal packages only via the public tdmd facade (allowlist aside)",
	Run:  runInternalBoundary,
}

// boundaryAllow maps a package's module-relative path to the internal
// imports it is allowed. The figure/topology pipelines are
// reproduction harnesses over the experiments package, which is not —
// and should not be — public API.
var boundaryAllow = map[string][]string{
	"cmd/figures":  {"internal/experiments"},
	"cmd/topogen":  {"internal/experiments"},
	"cmd/tdmdlint": {"internal/lint", "internal/lint/escape"}, // the lint driver is the internal tool
	// The service runtime (pool, engine, job store) is operational
	// machinery, not modeling API; the serve binary wires it up
	// directly.
	"cmd/tdmdserve": {"internal/serve"},
}

func runInternalBoundary(p *Package) []Finding {
	if !p.IsCommand() && !p.IsExample() {
		return nil
	}
	allowed := make(map[string]bool)
	for _, imp := range boundaryAllow[p.rel()] {
		allowed[p.Module+"/"+imp] = true
	}
	internalPrefix := p.Module + "/internal/"
	var out []Finding
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !strings.HasPrefix(path, internalPrefix) || allowed[path] {
				continue
			}
			out = append(out, p.finding("internalboundary", imp,
				"%s imports %s; use the public %s facade (or extend it)", p.rel(), path, p.Module))
		}
	}
	return out
}
