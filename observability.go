package tdmd

import (
	"io"
	"net/http"

	"tdmd/internal/obs"
	"tdmd/internal/placement"
)

// Observability facade. The cmd/ binaries may import only this
// package (the internalboundary analyzer enforces it), so the obs
// metrics core and the placement observer hook are re-exported here.
//
// Every Problem.Solve automatically reports to the process-wide
// metrics observer (solve counts, outcomes, latency histograms, phase
// timings, progress events, all labeled by algorithm); netsim's cache
// counters ride on the same default registry. Serve /metrics with
// MetricsHandler, dump with WriteMetricsText/WriteMetricsJSON, or add
// a custom observer per solve with WithSolveObserver. See DESIGN.md
// "Observability" for the metric catalog.

// Metric types, re-exported for callers registering their own series.
type (
	// MetricsRegistry is a named collection of metric families.
	MetricsRegistry = obs.Registry
	// Counter is a monotonically increasing integer metric.
	Counter = obs.Counter
	// Gauge is an integer metric that can go up and down.
	Gauge = obs.Gauge
	// Histogram is a fixed-bucket distribution metric.
	Histogram = obs.Histogram
	// CounterVec is a Counter family keyed by label values.
	CounterVec = obs.CounterVec
	// GaugeVec is a Gauge family keyed by label values.
	GaugeVec = obs.GaugeVec
	// HistogramVec is a Histogram family keyed by label values.
	HistogramVec = obs.HistogramVec
)

// SolveObserver receives solver lifecycle and progress events; see
// placement.SolveObserver for the contract.
type SolveObserver = placement.SolveObserver

// SolveOutcome classifies how a solve ended (ok, infeasible,
// deadline, canceled, bad_options, error).
type SolveOutcome = placement.Outcome

// Metrics returns the process-wide default metrics registry that every
// built-in counter and histogram lives on.
func Metrics() *MetricsRegistry { return obs.Default }

// SolveMetricsObserver returns the metrics-backed observer every
// Problem.Solve reports to; attach it in code paths that dispatch
// through placement.Solve directly.
func SolveMetricsObserver() SolveObserver { return placement.Metrics() }

// WithSolveObserver attaches an additional per-call observer to one
// Solve. It replaces the default metrics observer for that call, so
// wrap SolveMetricsObserver if both are wanted.
func WithSolveObserver(ob SolveObserver) SolveOption {
	return func(o *placement.Options) { o.Observer = ob }
}

// MetricsHandler serves the default registry as Prometheus text
// exposition — mount it on GET /metrics.
func MetricsHandler() http.Handler { return obs.Default.Handler() }

// WriteMetricsText renders the default registry as Prometheus text.
func WriteMetricsText(w io.Writer) error { return obs.Default.WritePrometheus(w) }

// WriteMetricsJSON renders the default registry as one JSON object
// (the expvar-style view the -stats flags print).
func WriteMetricsJSON(w io.Writer) error { return obs.Default.WriteJSON(w) }

// PublishExpvarMetrics exposes the default registry under the
// "tdmd_metrics" expvar (GET /debug/vars). Safe to call repeatedly.
func PublishExpvarMetrics() { obs.PublishExpvar() }
