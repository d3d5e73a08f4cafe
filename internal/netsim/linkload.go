package netsim

import (
	"sort"

	"tdmd/internal/graph"
)

// LinkKey identifies a directed link.
type LinkKey struct {
	From, To graph.NodeID
}

// LinkLoads walks every flow hop by hop, applying the rate drop at the
// vertex that serves it, and accumulates the load carried by each
// directed link. This is an independent, operational recomputation of
// the closed-form model: tests assert that the loads sum to
// TotalBandwidth(p) exactly.
func (in *Instance) LinkLoads(p Plan) map[LinkKey]float64 {
	loads := make(map[LinkKey]float64)
	alloc := in.Allocate(p)
	for i := range alloc {
		rate := float64(in.rates[i])
		path := in.FlowPath(i)
		processed := false
		for hop := 0; hop+1 < len(path); hop++ {
			u, w := path[hop], path[hop+1]
			if !processed && alloc[i] == u {
				rate *= in.Lambda
				processed = true
			}
			loads[LinkKey{u, w}] += rate
		}
	}
	return loads
}

// sortedLinkKeys lists a load map's keys in (From, To) order, giving
// every load walk a deterministic iteration order: float accumulation
// is not associative, so summing in map order would change result
// bits between runs.
func sortedLinkKeys(loads map[LinkKey]float64) []LinkKey {
	keys := make([]LinkKey, 0, len(loads))
	for k := range loads {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return keys[i].To < keys[j].To
	})
	return keys
}

// SumLoads adds up a link-load map; equals the total bandwidth
// consumption by construction. Summation runs in sorted key order so
// the result is bit-identical across runs.
func SumLoads(loads map[LinkKey]float64) float64 {
	var total float64
	for _, k := range sortedLinkKeys(loads) {
		total += loads[k]
	}
	return total
}

// MaxLinkLoad returns the most loaded directed link and its load
// (zero value and 0 for an empty map). Useful for the congestion
// sanity checks the paper's over-provisioning assumption relies on.
// Iteration runs in sorted key order, so ties resolve to the smallest
// (From, To) key deterministically.
func MaxLinkLoad(loads map[LinkKey]float64) (LinkKey, float64) {
	var bestKey LinkKey
	var best float64
	first := true
	for _, k := range sortedLinkKeys(loads) {
		if l := loads[k]; first || l > best {
			bestKey, best = k, l
			first = false
		}
	}
	return bestKey, best
}
