package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.NewGauge("test_inflight", "in-flight ops")
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Counter.Add(-1) did not panic")
		}
	}()
	c := NewRegistry().NewCounter("test_neg_total", "x")
	c.Add(-1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if want := 0.005 + 0.01 + 0.05 + 0.5 + 2 + 100; math.Abs(h.Sum()-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	// Non-cumulative raw buckets: (<=0.01)=2, (<=0.1)=1, (<=1)=1, +Inf=2.
	got := []int64{h.buckets[0].Load(), h.buckets[1].Load(), h.buckets[2].Load(), h.buckets[3].Load()}
	want := []int64{2, 1, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
}

func TestVecSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_runs_total", "runs", "algorithm", "outcome")
	a := v.With("gtp", "ok")
	b := v.With("gtp", "ok")
	if a != b {
		t.Fatal("same label values returned different series")
	}
	v.With("gtp", "error").Inc()
	a.Add(2)
	if a.Value() != 2 || v.With("gtp", "error").Value() != 1 {
		t.Fatal("label series are not independent")
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	r := NewRegistry()
	v := r.NewCounterVec("test_arity_total", "x", "a", "b")
	v.With("only-one")
}

func TestNameHygienePanics(t *testing.T) {
	cases := []struct {
		name string
		reg  func(r *Registry)
	}{
		{"counter without _total", func(r *Registry) { r.NewCounter("test_ops", "x") }},
		{"histogram without unit", func(r *Registry) { r.NewHistogram("test_latency", "x", nil) }},
		{"gauge with _total", func(r *Registry) { r.NewGauge("test_weird_total", "x") }},
		{"camelCase", func(r *Registry) { r.NewCounter("testOps_total", "x") }},
		{"double underscore", func(r *Registry) { r.NewCounter("test__ops_total", "x") }},
		{"leading digit", func(r *Registry) { r.NewCounter("9test_total", "x") }},
		{"empty help", func(r *Registry) { r.NewCounter("test_ops_total", "") }},
		{"bad label", func(r *Registry) { r.NewCounterVec("test_ops_total", "x", "camelCase") }},
		{"Default without tdmd_ prefix", func(*Registry) { NewCounter("serve_rejected_total", "x") }},
		{"duplicate", func(r *Registry) {
			r.NewCounter("test_dup_total", "x")
			r.NewCounter("test_dup_total", "x")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: registration did not panic", tc.name)
				}
			}()
			tc.reg(NewRegistry())
		})
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "ops")
	h := r.NewHistogram("test_latency_seconds", "latency", nil)
	v := r.NewCounterVec("test_routes_total", "by route", "route")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route := []string{"a", "b"}[w%2]
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				v.With(route).Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if got := v.With("a").Value() + v.With("b").Value(); got != workers*per {
		t.Fatalf("vec total = %d, want %d", got, workers*per)
	}
}

// TestPrometheusExposition renders a populated registry and validates
// every line of the output parses as text-format exposition: comments
// with known TYPE values, series lines as name{labels} value, and
// cumulative, +Inf-terminated histogram buckets.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_ops_total", "ops so far").Add(7)
	r.NewGauge("test_inflight", "in-flight").Set(2)
	h := r.NewHistogram("test_latency_seconds", "latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	v := r.NewCounterVec("test_runs_total", "runs", "algorithm")
	v.With("gtp").Inc()
	v.With(`we"ird\`).Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	series := map[string]string{}
	for _, line := range lines {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown TYPE %q in %q", fields[3], line)
			}
			continue
		}
		// Series line: name or name{...}, space, value.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed series line %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		if _, err := parseNumber(val); err != nil {
			t.Fatalf("series %q has unparsable value %q: %v", key, val, err)
		}
		series[key] = val
	}
	for _, want := range []string{
		`test_ops_total 7`,
		`test_inflight 2`,
		`test_runs_total{algorithm="gtp"} 1`,
		`test_runs_total{algorithm="we\"ird\\"} 1`,
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		`test_latency_seconds_count 3`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func parseNumber(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_ops_total", "ops").Add(3)
	h := r.NewHistogram("test_latency_seconds", "latency", []float64{1})
	h.Observe(0.5)
	h.Observe(2)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("JSON exposition does not parse: %v\n%s", err, sb.String())
	}
	if string(doc["test_ops_total"]) != "3" {
		t.Fatalf("test_ops_total = %s", doc["test_ops_total"])
	}
	var hist struct {
		Count   int64            `json:"count"`
		Sum     float64          `json:"sum"`
		Buckets map[string]int64 `json:"buckets"`
	}
	if err := json.Unmarshal(doc["test_latency_seconds"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 2 || hist.Buckets["1"] != 1 || hist.Buckets["+Inf"] != 2 {
		t.Fatalf("histogram snapshot %+v", hist)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().NewCounter("bench_ops_total", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().NewHistogram("bench_latency_seconds", "x", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}
