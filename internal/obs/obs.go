// Package obs is the repository's zero-dependency metrics core: atomic
// counters, gauges and fixed-bucket histograms, grouped into a
// registry with Prometheus-text and expvar-style JSON exposition.
//
// Design constraints (DESIGN.md "Observability"):
//
//   - stdlib only — the module has no external dependencies and must
//     stay that way, so this is not a Prometheus client; it emits the
//     subset of the text format scrapers actually parse;
//   - allocation-free on the hot path — Counter.Add, Gauge.Add and
//     Histogram.Observe perform only atomic operations; the labeled
//     Vec lookups allocate a key and are meant to run once per
//     request/solve, never inside solver loops (resolve the handle
//     once and hold it where that matters);
//   - metric-name hygiene is enforced at registration, which panics on
//     a malformed name: every metric is wired at init time or under
//     placement.Metrics' sync.Once, so a bad name fails any test that
//     loads the package.
//
// Naming rules: snake_case ([a-z0-9_], starting with a letter),
// counters end in _total, histograms end in a unit suffix (_seconds or
// _bytes), gauges must not end in _total, and names on the Default
// registry carry the tdmd_ namespace prefix.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric types for exposition.
type Kind int

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing atomic count.
type Counter struct{ v atomic.Int64 }

// Add increases the counter by n (n < 0 panics: counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: Counter.Add with negative delta")
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can move both ways (in-flight
// requests, pool sizes).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat is a float64 updated by compare-and-swap, for histogram
// sums.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket latency/size distribution. Buckets are
// defined by their upper bounds (ascending); one extra bucket catches
// everything above the last bound (+Inf). Observe is lock-free and
// allocation-free.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; non-cumulative
	count   atomic.Int64
	sum     atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// DefLatencyBuckets spans the solve/request latencies this system
// sees: microsecond greedy rounds on toy instances up to multi-second
// exact searches.
var DefLatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// labelSep joins label values into a series key; it cannot appear in
// a UTF-8 label value.
const labelSep = "\xff"

// family is one named metric: its metadata plus the labeled series
// under it (a single anonymous series for unlabeled metrics).
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu     sync.RWMutex
	series map[string]any // *Counter | *Gauge | *Histogram, keyed by joined label values
}

// get returns the series for the given label values, creating it on
// first use.
func (f *family) get(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	var nw any
	switch f.kind {
	case KindCounter:
		nw = &Counter{}
	case KindGauge:
		nw = &Gauge{}
	case KindHistogram:
		nw = newHistogram(f.bounds)
	}
	f.series[key] = nw
	return nw
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values, creating it on
// first use. Hold the returned handle where the call rate matters.
func (v *CounterVec) With(values ...string) *Counter { return v.fam.get(values).(*Counter) }

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.fam.get(values).(*Gauge) }

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.fam.get(values).(*Histogram) }

// Registry holds a set of uniquely named metric families.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	prefix   string // namespace every name must start with
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Default is the process-wide registry every package-level constructor
// registers into and the /metrics endpoint exposes.
var Default = &Registry{families: map[string]*family{}, prefix: "tdmd_"}

// validName reports whether name is snake_case: a lowercase letter
// followed by lowercase letters, digits and single underscores.
func validName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	prevUnderscore := false
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '_':
			if prevUnderscore {
				return false // no double underscores
			}
			prevUnderscore = true
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			prevUnderscore = false
		default:
			return false
		}
	}
	return !prevUnderscore // no trailing underscore
}

// checkName enforces the naming rules; registration happens at init
// time, so violations panic.
func (r *Registry) checkName(name string, kind Kind) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: metric name %q is not snake_case", name))
	}
	if !strings.HasPrefix(name, r.prefix) {
		panic(fmt.Sprintf("obs: metric %q lacks the %q namespace prefix", name, r.prefix))
	}
	switch kind {
	case KindCounter:
		if !strings.HasSuffix(name, "_total") {
			panic(fmt.Sprintf("obs: counter %q must end in _total", name))
		}
	case KindHistogram:
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
			panic(fmt.Sprintf("obs: histogram %q must end in a unit suffix (_seconds or _bytes)", name))
		}
	case KindGauge:
		if strings.HasSuffix(name, "_total") {
			panic(fmt.Sprintf("obs: gauge %q must not end in _total (that suffix marks counters)", name))
		}
	}
}

// register adds a family, panicking on duplicate or malformed names.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	r.checkName(name, kind)
	if help == "" {
		panic(fmt.Sprintf("obs: metric %q registered without help text", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: metric %q label %q is not snake_case", name, l))
		}
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		series: map[string]any{},
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: duplicate metric registration: " + name)
	}
	r.families[name] = f
	return f
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return f.get(nil).(*Counter)
}

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return f.get(nil).(*Gauge)
}

// NewHistogram registers an unlabeled histogram with the given bucket
// upper bounds (nil = DefLatencyBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	f := r.register(name, help, KindHistogram, nil, bounds)
	return f.get(nil).(*Histogram)
}

// NewCounterVec registers a counter family keyed by the given labels.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, KindCounter, labels, nil)}
}

// NewGaugeVec registers a gauge family keyed by the given labels.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, KindGauge, labels, nil)}
}

// NewHistogramVec registers a histogram family keyed by the given
// labels (nil bounds = DefLatencyBuckets).
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return &HistogramVec{fam: r.register(name, help, KindHistogram, labels, bounds)}
}

// Package-level constructors registering into Default.

// NewCounter registers an unlabeled counter on the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewGauge registers an unlabeled gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewHistogram registers an unlabeled histogram on the Default
// registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.NewHistogram(name, help, bounds)
}

// NewCounterVec registers a labeled counter family on the Default
// registry.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.NewCounterVec(name, help, labels...)
}

// NewGaugeVec registers a labeled gauge family on the Default
// registry.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return Default.NewGaugeVec(name, help, labels...)
}

// NewHistogramVec registers a labeled histogram family on the Default
// registry.
func NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return Default.NewHistogramVec(name, help, bounds, labels...)
}

// sortedFamilies snapshots the families in name order for stable
// exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedSeries snapshots a family's series in key order.
func (f *family) sortedSeries() []seriesSnap {
	f.mu.RLock()
	out := make([]seriesSnap, 0, len(f.series))
	for k, s := range f.series {
		var values []string
		if k != "" || len(f.labels) > 0 {
			values = strings.Split(k, labelSep)
		}
		out = append(out, seriesSnap{values: values, metric: s})
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].values, labelSep) < strings.Join(out[j].values, labelSep)
	})
	return out
}

// seriesSnap pairs one series' label values with its metric.
type seriesSnap struct {
	values []string
	metric any
}
