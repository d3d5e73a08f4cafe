package placement

import (
	"context"
	"testing"
	"time"
)

// countingObserver is the cheapest possible real observer — it mirrors
// what the metrics observer pays per event without the vec lookups —
// used to isolate the instrumentation overhead itself.
type countingObserver struct{ starts, dones, phases, counts int64 }

func (c *countingObserver) SolveStart(string)                        { c.starts++ }
func (c *countingObserver) SolveDone(string, Outcome, time.Duration) { c.dones++ }
func (c *countingObserver) Phase(string, string, time.Duration)      { c.phases++ }
func (c *countingObserver) Count(string, string, int64)              { c.counts++ }

// BenchmarkObserverOverhead is the paired guard for the ≤2% hot-path
// budget (DESIGN.md "Observability"): the same budgeted-greedy solve
// with no observer, with a minimal observer, and with the production
// metrics observer. `make obs` runs it.
func BenchmarkObserverOverhead(b *testing.B) {
	in := benchGeneralInstance(b, 150, 600)
	base := Options{K: 8}
	if _, err := Solve(context.Background(), "gtp", in, base); err != nil {
		b.Skip("gtp infeasible on bench instance:", err)
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Solve(context.Background(), "gtp", in, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("counting", func(b *testing.B) {
		opts := Options{K: 8, Observer: &countingObserver{}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Solve(context.Background(), "gtp", in, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("metrics", func(b *testing.B) {
		opts := Options{K: 8, Observer: Metrics()}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Solve(context.Background(), "gtp", in, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
