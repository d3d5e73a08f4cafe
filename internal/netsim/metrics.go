package netsim

import "tdmd/internal/obs"

// Global counters for the incremental engine, registered on the
// default obs registry and exposed through /metrics and the -stats
// dumps. They answer the operational question PRs 2-3 left open: how
// hot is the per-vertex score cache under a real workload, and how
// many plan mutations did it absorb?
//
// Cost discipline (DESIGN.md "Observability"): the cache-hit path is
// the hottest read in the system (every greedy candidate scan lands
// on it), so hits are counted with a plain per-State field and flushed
// to the shared atomic counter only at mutation boundaries —
// AddBox/RemoveBox already touch many flows, so one extra atomic add
// there is noise. Misses go straight to the atomic counter because a
// miss pays a full rescore anyway. A State abandoned between its last
// mutation and its last reads may leave a final partial hit batch
// unreported; the counters are rates for dashboards, not invariants.
// The budgeted greedy's guard deploys and reverts tentative boxes on
// the solver's State, so its probes count as mutations, misses and
// hits too.
var (
	stateCacheHits = obs.NewCounter("tdmd_netsim_state_cache_hits_total",
		"MarginalGain/UnservedCovered queries answered from the per-vertex score cache")
	stateCacheMisses = obs.NewCounter("tdmd_netsim_state_cache_misses_total",
		"per-vertex score cache misses (full rescore of one vertex)")
	stateMutations = obs.NewCounter("tdmd_netsim_state_mutations_total",
		"State plan mutations (AddBox + RemoveBox), budget-guard probes included")
	statesBuilt = obs.NewCounter("tdmd_netsim_states_built_total",
		"incremental States constructed (one full allocation each)")
)

// Memory gauges for the arena layout: how many bytes the most recently
// built instance retains. Latest-instance semantics — each Build
// overwrites the gauges, so a process juggling several instances
// reports the newest one. That is
// the right shape for the serve path (one live instance per request
// burst) and keeps the hot path free of per-instance registries.
var (
	instanceBytesGauge = obs.NewGauge("tdmd_instance_bytes",
		"bytes retained by the latest netsim instance (its arenas and offset tables; equals tdmd_arena_bytes)")
	arenaBytesGauge = obs.NewGauge("tdmd_arena_bytes",
		"bytes retained by the latest instance's through/path arenas and offset tables")
)

// updateMemoryGauges publishes the instance's MemoryFootprint to both
// gauges. Called from Builder.Build.
func updateMemoryGauges(in *Instance) {
	bytes := in.MemoryFootprint()
	instanceBytesGauge.Set(bytes)
	arenaBytesGauge.Set(bytes)
}

// flushCacheHits drains the State's local hit batch into the shared
// counter. Called on the mutation path only, per the State
// concurrency contract (mutations are single-goroutine).
func (s *State) flushCacheHits() {
	if s.pendingHits > 0 {
		stateCacheHits.Add(s.pendingHits)
		s.pendingHits = 0
	}
}

// CacheCounters reports the process-wide cache hit/miss totals, for
// tests and diagnostics.
func CacheCounters() (hits, misses int64) {
	return stateCacheHits.Value(), stateCacheMisses.Value()
}
