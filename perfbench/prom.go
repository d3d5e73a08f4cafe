package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// metrics is one /metrics scrape: series key → value. A key is the
// metric name followed by its labels in canonical (sorted) order, e.g.
// `tdmd_solve_duration_seconds_sum{algorithm="dp"}`.
type metrics map[string]float64

// parseMetrics reads Prometheus text exposition (version 0.0.4).
// Comment lines are skipped; every sample line must be
// `name[{labels}] value`, and anything else is an error rather than a
// silently missing series.
func parseMetrics(r io.Reader) (metrics, error) {
	out := metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", n, err)
		}
		key, err := canonicalKey(strings.TrimSpace(line[:cut]))
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", n, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// canonicalKey sorts a series' labels so lookups do not depend on the
// order the exposition wrote them in.
func canonicalKey(series string) (string, error) {
	open := strings.IndexByte(series, '{')
	if open < 0 {
		return series, nil
	}
	if !strings.HasSuffix(series, "}") {
		return "", fmt.Errorf("unterminated labels in %q", series)
	}
	labels, err := splitLabels(series[open+1 : len(series)-1])
	if err != nil {
		return "", err
	}
	sort.Strings(labels)
	return series[:open] + "{" + strings.Join(labels, ",") + "}", nil
}

// splitLabels splits `a="x",b="y"` on the commas outside quotes.
func splitLabels(s string) ([]string, error) {
	var out []string
	inQuote, escaped, start := false, false, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case escaped:
			escaped = false
		case c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated label value in %q", s)
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	for _, l := range out {
		if eq := strings.IndexByte(l, '='); eq <= 0 || !strings.HasPrefix(l[eq+1:], `"`) {
			return nil, fmt.Errorf("malformed label %q", l)
		}
	}
	return out, nil
}

// series builds the canonical key of name with label pairs given as
// alternating names and values.
func series(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	labels := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		labels = append(labels, kv[i]+`="`+kv[i+1]+`"`)
	}
	sort.Strings(labels)
	return name + "{" + strings.Join(labels, ",") + "}"
}

// delta is after − before for every series present after the run
// (a series born during the run counts from zero).
func delta(before, after metrics) metrics {
	out := make(metrics, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// mean is a histogram's sum ÷ count, 0 when it saw no observations.
func (m metrics) mean(name string, kv ...string) float64 {
	n := m[series(name+"_count", kv...)]
	if n == 0 {
		return 0
	}
	return m[series(name+"_sum", kv...)] / n
}

// ratio is num ÷ den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
