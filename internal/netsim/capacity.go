package netsim

import (
	"sort"

	"tdmd/internal/graph"
)

// Capacitated model: the paper assumes "a middlebox does not have a
// capacity limit" (Sec. 1); real deployments do (cf. Sallam & Ji,
// INFOCOM'19, which the paper cites for capacity-constrained
// placement). This file extends the model with a uniform per-middlebox
// processing capacity: the total initial rate a single box may serve.
//
// With capacities the allocation is no longer per-flow independent —
// flows compete for the box nearest their source. We assign flows in
// descending rate order (first-fit-decreasing over each flow's
// preference list), which is deterministic and keeps heavy flows at
// their best boxes; ties break by flow index.

// AllocateCapacitated assigns each flow to the best deployed vertex on
// its path with residual capacity. capacity <= 0 means unlimited and
// defers to Allocate. Flows that fit nowhere are Unserved.
func (in *Instance) AllocateCapacitated(p Plan, capacity int) Allocation {
	if capacity <= 0 {
		return in.Allocate(p)
	}
	alloc := make(Allocation, in.NumFlows())
	for i := range alloc {
		alloc[i] = Unserved
	}
	order := make([]int, in.NumFlows())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := in.FlowRate(order[a]), in.FlowRate(order[b])
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	residual := map[graph.NodeID]int{}
	for _, v := range p.Vertices() {
		residual[v] = capacity
	}
	for _, i := range order {
		rate := in.FlowRate(i)
		path := in.FlowPath(i)
		if in.Lambda <= 1 {
			for _, v := range path {
				if p.Has(v) && residual[v] >= rate {
					alloc[i] = v
					residual[v] -= rate
					break
				}
			}
		} else {
			for j := len(path) - 1; j >= 0; j-- {
				v := path[j]
				if p.Has(v) && residual[v] >= rate {
					alloc[i] = v
					residual[v] -= rate
					break
				}
			}
		}
	}
	return alloc
}

// TotalBandwidthCapacitated scores the capacitated assignment.
func (in *Instance) TotalBandwidthCapacitated(p Plan, capacity int) float64 {
	alloc := in.AllocateCapacitated(p, capacity)
	var total float64
	for i := range alloc {
		total += in.FlowBandwidth(i, alloc[i])
	}
	return total
}
