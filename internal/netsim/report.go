package netsim

import (
	"fmt"
	"strings"

	"tdmd/internal/graph"
)

// Report summarizes what a deployment actually does: which middlebox
// serves how much traffic, how early flows get processed, and how much
// of the theoretical saving the plan realizes. cmd/tdmd prints it and
// operators use it to sanity-check plans before rollout.
type Report struct {
	// Plan is the deployment being reported on.
	Plan Plan
	// Feasible reports whether every flow is served.
	Feasible bool
	// TotalBandwidth is b(P).
	TotalBandwidth float64
	// RawDemand is Σ r_f·|p_f| (the no-middlebox consumption).
	RawDemand float64
	// SavingFraction is the achieved share of the maximum possible
	// decrement (1 when every flow is processed at its source; 0 when
	// nothing is saved). Undefined (0) for λ = 1.
	SavingFraction float64
	// Boxes lists per-middlebox statistics, ordered by vertex.
	Boxes []BoxStats
	// UnservedFlows lists flow indices with no middlebox on their path.
	UnservedFlows []int
	// MeanProcessingDepth is the average fraction of a served flow's
	// path already traversed when it reaches its middlebox (0 = at the
	// source, 1 = at the destination). Lower is better for diminishing
	// middleboxes.
	MeanProcessingDepth float64
}

// BoxStats describes one deployed middlebox's load.
type BoxStats struct {
	Vertex graph.NodeID
	// Flows is the number of flows this middlebox processes.
	Flows int
	// Rate is the total initial rate processed here.
	Rate int
	// Idle marks a middlebox that serves no flow (pure budget waste).
	Idle bool
}

// Report builds the deployment report for p.
func (in *Instance) Report(p Plan) Report {
	alloc := in.Allocate(p)
	rep := Report{
		Plan:           p,
		Feasible:       true,
		TotalBandwidth: in.TotalBandwidth(p),
		RawDemand:      in.rawDemand,
	}
	maxSaving := (1 - in.Lambda) * in.rawDemand
	if maxSaving > 0 {
		rep.SavingFraction = (in.rawDemand - rep.TotalBandwidth) / maxSaving
	} else if in.Lambda > 1 {
		// Expanding middleboxes: report the (negative) inflation share.
		rep.SavingFraction = (in.rawDemand - rep.TotalBandwidth) / ((in.Lambda - 1) * in.rawDemand)
	}
	perBox := map[graph.NodeID]*BoxStats{}
	for _, v := range p.Vertices() {
		perBox[v] = &BoxStats{Vertex: v, Idle: true}
	}
	var depthSum float64
	served := 0
	for i := range alloc {
		v := alloc[i]
		if v == Unserved {
			rep.Feasible = false
			rep.UnservedFlows = append(rep.UnservedFlows, i)
			continue
		}
		bs := perBox[v]
		bs.Flows++
		bs.Rate += in.FlowRate(i)
		bs.Idle = false
		served++
		depthSum += float64(in.FlowPath(i).Index(v)) / float64(in.flowHops(i))
	}
	if served > 0 {
		rep.MeanProcessingDepth = depthSum / float64(served)
	}
	for _, v := range p.Vertices() {
		rep.Boxes = append(rep.Boxes, *perBox[v])
	}
	return rep
}

// String renders a compact multi-line summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s: bandwidth %.4g / raw %.4g (saving %.1f%% of maximum), feasible=%v\n",
		r.Plan, r.TotalBandwidth, r.RawDemand, 100*r.SavingFraction, r.Feasible)
	fmt.Fprintf(&b, "mean processing depth: %.2f of path\n", r.MeanProcessingDepth)
	for _, bs := range r.Boxes {
		state := ""
		if bs.Idle {
			state = "  [idle]"
		}
		fmt.Fprintf(&b, "  box @%d: %d flows, rate %d%s\n", bs.Vertex, bs.Flows, bs.Rate, state)
	}
	if len(r.UnservedFlows) > 0 {
		fmt.Fprintf(&b, "  UNSERVED flows: %v\n", r.UnservedFlows)
	}
	return b.String()
}
