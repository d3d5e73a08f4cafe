// Package resilience analyzes deployments under middlebox failures:
// what breaks when a box dies, which box is most critical, and how to
// repair a degraded plan within the remaining budget. The paper's
// model places boxes on switch-attached servers; servers fail, and an
// operator adopting this library needs the blast-radius answer before
// the pager does.
package resilience

import (
	"context"

	"fmt"
	"sort"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/placement"
)

// Impact quantifies the loss of one deployed middlebox.
type Impact struct {
	// Failed is the vertex whose middlebox is removed.
	Failed graph.NodeID
	// UnservedFlows counts flows left with no middlebox after the
	// failure (coverage violations — the hard damage).
	UnservedFlows int
	// BandwidthDelta is the consumption increase caused by the failure
	// (re-allocating surviving flows optimally).
	BandwidthDelta float64
}

// Degrade computes the impact of failing a single deployed vertex.
func Degrade(in *netsim.Instance, p netsim.Plan, failed graph.NodeID) (Impact, error) {
	if !p.Has(failed) {
		return Impact{}, fmt.Errorf("resilience: vertex %d hosts no middlebox", failed)
	}
	before := in.TotalBandwidth(p)
	degraded := p.Clone()
	degraded.Remove(failed)
	alloc := in.Allocate(degraded)
	unserved := 0
	for _, v := range alloc {
		if v == netsim.Unserved {
			unserved++
		}
	}
	return Impact{
		Failed:         failed,
		UnservedFlows:  unserved,
		BandwidthDelta: in.TotalBandwidth(degraded) - before,
	}, nil
}

// Ranking lists every deployed vertex's failure impact, most critical
// first (more unserved flows, then larger bandwidth increase, then
// smaller ID).
func Ranking(in *netsim.Instance, p netsim.Plan) []Impact {
	impacts := make([]Impact, 0, p.Size())
	for _, v := range p.Vertices() {
		imp, err := Degrade(in, p, v)
		if err != nil {
			continue // unreachable for vertices of p
		}
		impacts = append(impacts, imp)
	}
	sort.Slice(impacts, func(i, j int) bool {
		a, b := impacts[i], impacts[j]
		if a.UnservedFlows != b.UnservedFlows {
			return a.UnservedFlows > b.UnservedFlows
		}
		if a.BandwidthDelta > b.BandwidthDelta {
			return true
		}
		if a.BandwidthDelta < b.BandwidthDelta {
			return false
		}
		return a.Failed < b.Failed
	})
	return impacts
}

// Repair replaces a failed middlebox: the failed vertex is removed
// (and blacklisted — its server is down), the surviving boxes stay
// where they are (state migration is expensive), and replacements are
// chosen by the budget-guarded greedy until every flow is served
// again within the total budget k.
func Repair(ctx context.Context, in *netsim.Instance, p netsim.Plan, failed graph.NodeID, k int) (placement.Result, error) {
	if !p.Has(failed) {
		return placement.Result{}, fmt.Errorf("resilience: vertex %d hosts no middlebox", failed)
	}
	survivors := p.Clone()
	survivors.Remove(failed)
	banned := map[graph.NodeID]bool{failed: true}
	return placement.CompletePlan(ctx, in, survivors, k, banned)
}
