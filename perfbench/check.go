package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"tdmd"
)

// answer is the part of a solve response (or a done job's result) the
// output check reads.
type answer struct {
	Plan      []int   `json:"plan"`
	Bandwidth float64 `json:"bandwidth"`
	Feasible  bool    `json:"feasible"`
	RawDemand float64 `json:"raw_demand"`
}

// checkAnswer judges one answer against the request's reference:
// feasible, every plan vertex in range, at most k boxes for a budgeted
// algorithm, and a bandwidth bit-identical both to the in-process solve
// of the same submission (the replay contract) and to Problem.Evaluate
// of the returned plan. Bit-identity is checked on the float64 bits:
// encoding/json writes the shortest decimal that round-trips.
func checkAnswer(req *request, a answer) error {
	want := req.want
	if !a.Feasible {
		return fmt.Errorf("plan reported infeasible")
	}
	for _, v := range a.Plan {
		if v < 0 || v >= want.nodes {
			return fmt.Errorf("plan vertex %d outside graph (%d vertices)", v, want.nodes)
		}
	}
	if req.alg.Budgeted() && len(a.Plan) > req.k {
		return fmt.Errorf("%s deployed %d boxes, budget %d", req.alg, len(a.Plan), req.k)
	}
	if math.Float64bits(a.Bandwidth) != math.Float64bits(want.bandwidth) {
		return fmt.Errorf("bandwidth %v, in-process solve %v", a.Bandwidth, want.bandwidth)
	}
	if math.Float64bits(a.RawDemand) != math.Float64bits(want.raw) {
		return fmt.Errorf("raw_demand %v, in-process %v", a.RawDemand, want.raw)
	}
	eval, err := evaluate(req, a.Plan)
	if err != nil {
		return err
	}
	if math.Float64bits(a.Bandwidth) != math.Float64bits(eval) {
		return fmt.Errorf("bandwidth %v, Evaluate of the returned plan %v", a.Bandwidth, eval)
	}
	return nil
}

// evaluate scores plan with Problem.Evaluate. The reference plan's score
// was computed at generation time; any other plan is scored on the
// request's problem, rebuilt from the bytes that were sent.
func evaluate(req *request, plan []int) (float64, error) {
	if slices.Equal(plan, req.want.plan) {
		return req.want.evaluated, nil
	}
	doc := req.spec
	if doc == nil {
		doc = req.body
	}
	p, err := tdmd.DecodeStream(bytes.NewReader(doc))
	if err != nil {
		return 0, fmt.Errorf("rebuilding problem for Evaluate: %v", err)
	}
	vs := make([]tdmd.NodeID, len(plan))
	for i, v := range plan {
		vs[i] = tdmd.NodeID(v)
	}
	return p.Evaluate(tdmd.NewPlan(vs...)).Bandwidth, nil
}
