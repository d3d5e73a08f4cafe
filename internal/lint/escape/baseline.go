package escape

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// ReadBaseline parses and validates an escape baseline file. Findings
// may carry "line" and "col" (the format before baselines were written
// key-only); Diff ignores them either way.
func ReadBaseline(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("escape baseline: %v", err)
	}
	var rep Report
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("escape baseline %s: %v", path, err)
	}
	for _, f := range rep.Findings {
		if f.Kind != KindEscape && f.Kind != KindNoInline {
			return Report{}, fmt.Errorf("escape baseline %s: unknown kind %q", path, f.Kind)
		}
	}
	return rep, nil
}

// WriteBaseline writes the report in the checked-in format: indented,
// trailing newline, findings never null. Each finding is reduced to
// its key fields (kind, file, message), deduplicated, and sorted by
// file, kind and message: Diff never reads positions, and leaving them
// out keeps edits that only move lines from rewriting the file.
func WriteBaseline(path string, rep Report) error {
	seen := make(map[string]bool, len(rep.Findings))
	keys := make([]Finding, 0, len(rep.Findings))
	for _, f := range rep.Findings {
		if k := f.Key(); !seen[k] {
			seen[k] = true
			keys = append(keys, Finding{Kind: f.Kind, File: f.File, Message: f.Message})
		}
	}
	Sort(keys) // no positions: by file, kind, message
	rep.Findings = keys
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
