package netsim

import (
	"fmt"
	"strings"
	"testing"

	"tdmd/internal/obs"
	"tdmd/internal/paperfix"
)

// TestCacheCountersTrackHitsAndMisses exercises the batched hit
// accounting: misses land immediately, hits only at the next mutation
// or Plan() flush. Counters are process-global, so everything asserts
// on deltas.
func TestCacheCountersTrackHitsAndMisses(t *testing.T) {
	in := fig1(t)
	s := NewState(in, NewPlan())

	h0, m0 := CacheCounters()
	v := paperfix.V(5)
	s.MarginalGain(v) // cold: one miss, no hit
	if h, m := CacheCounters(); m-m0 != 1 || h-h0 != 0 {
		t.Fatalf("after cold query: hits+%d misses+%d, want +0/+1", h-h0, m-m0)
	}
	s.MarginalGain(v)    // warm: batched locally, not yet visible
	s.UnservedCovered(v) // warm again
	if h, _ := CacheCounters(); h-h0 != 0 {
		t.Fatalf("batched hits flushed early: +%d", h-h0)
	}
	if s.pendingHits != 2 {
		t.Fatalf("pendingHits = %d, want 2", s.pendingHits)
	}
	s.AddBox(v) // mutation flushes the batch
	if h, _ := CacheCounters(); h-h0 != 2 {
		t.Fatalf("after mutation: hits+%d, want +2", h-h0)
	}
	if s.pendingHits != 0 {
		t.Fatal("mutation did not drain pendingHits")
	}

	// Plan() is the other drain site.
	u := paperfix.V(2)
	s.MarginalGain(u) // v5's deployment invalidated u's score: miss
	s.MarginalGain(u) // hit, batched
	h1, _ := CacheCounters()
	_ = s.Plan()
	if h, _ := CacheCounters(); h-h1 != 1 {
		t.Fatalf("Plan() flushed +%d hits, want +1", h-h1)
	}
}

// Both memory gauges must track the latest instance's footprint and
// appear in the Prometheus exposition with that exact value.
func TestMemoryGaugesExposed(t *testing.T) {
	in := fig1(t)
	bytes := in.MemoryFootprint()
	if bytes <= 0 {
		t.Fatal("instance footprint not positive")
	}
	if got := instanceBytesGauge.Value(); got != bytes {
		t.Fatalf("tdmd_instance_bytes = %d, want %d", got, bytes)
	}
	if got := arenaBytesGauge.Value(); got != bytes {
		t.Fatalf("tdmd_arena_bytes = %d, want %d", got, bytes)
	}

	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE tdmd_instance_bytes gauge",
		fmt.Sprintf("tdmd_instance_bytes %d", bytes),
		"# TYPE tdmd_arena_bytes gauge",
		fmt.Sprintf("tdmd_arena_bytes %d", bytes),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
