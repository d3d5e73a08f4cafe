package tdmd

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"tdmd/internal/paperfix"
	"tdmd/internal/placement"
)

func TestSolveScaledDP(t *testing.T) {
	p := fig5Problem(t)
	res, scale, err := p.SolveScaledDP(context.Background(), 3, ScaledDPOpts{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if scale != 1 || res.Bandwidth != 13.5 {
		t.Fatalf("scaled DP = %v at scale %d, want 13.5 at 1", res.Bandwidth, scale)
	}
	if _, _, err := fig1Problem(t).SolveScaledDP(context.Background(), 3, ScaledDPOpts{}); err == nil {
		t.Fatal("scaled DP without tree accepted")
	}
}

func TestSimulateStaticMatchesEvaluate(t *testing.T) {
	p := fig1Problem(t)
	plan := NewPlan(paperfix.V(2), paperfix.V(5))
	m, err := p.Simulate(plan, SimConfig{Horizon: 7, InitialFlows: p.Instance().Flows()})
	if err != nil {
		t.Fatal(err)
	}
	want := p.Evaluate(plan).Bandwidth
	if math.Abs(m.TimeAvgBandwidth-want) > 1e-9 {
		t.Fatalf("simulated %v != evaluated %v", m.TimeAvgBandwidth, want)
	}
}

func TestTraceFacadeRoundTrip(t *testing.T) {
	g, flows, _ := paperfix.Fig1()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, g, flows); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(flows) {
		t.Fatalf("round trip count %d != %d", len(back), len(flows))
	}
}

func TestExpandingLambdaThroughFacade(t *testing.T) {
	g, flows, _ := paperfix.Fig1()
	p, err := NewProblem(g, flows, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Solve(context.Background(), AlgGTP, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("expanding GTP infeasible")
	}
	if r.Bandwidth < p.Instance().RawDemand()-1e-9 {
		t.Fatal("expanding bandwidth below raw demand")
	}
}

func TestResilienceFacade(t *testing.T) {
	p := fig1Problem(t)
	res, err := p.Solve(context.Background(), AlgGTP, 3)
	if err != nil {
		t.Fatal(err)
	}
	ranking := p.FailureRanking(res.Plan)
	if len(ranking) != 3 {
		t.Fatalf("ranking = %d entries", len(ranking))
	}
	worst := ranking[0]
	repaired, err := p.Repair(context.Background(), res.Plan, worst.Failed, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired.Feasible || repaired.Plan.Has(worst.Failed) {
		t.Fatalf("bad repair %+v", repaired)
	}
}

// TestFacadeReachesEveryRegisteredSolver: Problem.Solve is the one
// facade entry to the registry, so for every registered name it must
// return exactly what placement.Solve returns, error text included,
// given the options the solver consumes. Fig. 1 has no tree, so the
// tree-only solvers must fail the same way on both paths there; its
// k=3 optimum is 8, which bnb certifies and multistart-ls reaches.
func TestFacadeReachesEveryRegisteredSolver(t *testing.T) {
	const k, capacity = 3, 6
	seed := int64(3)
	for _, p := range []*Problem{fig1Problem(t), fig5Problem(t)} {
		for _, name := range placement.Names() {
			s, _ := placement.Lookup(name)
			consumes := s.Traits().Consumes
			var facade []SolveOption
			var direct placement.Options
			solveK := 0
			if consumes&placement.OptK != 0 {
				solveK = k
				direct.K = k
			}
			if consumes&placement.OptSeed != 0 {
				facade = append(facade, WithSolveSeed(seed))
				direct.Seed = &seed
			}
			if consumes&placement.OptTree != 0 {
				direct.Tree = p.Tree()
			}
			if consumes&placement.OptCapacity != 0 {
				facade = append(facade, WithCapacity(capacity))
				direct.Capacity = capacity
			}
			got, gerr := p.Solve(context.Background(), Algorithm(name), solveK, facade...)
			want, werr := placement.Solve(context.Background(), name, p.Instance(), direct)
			if g, w := describeSolve(got, gerr), describeSolve(want, werr); g != w {
				t.Errorf("%s (tree %v): facade %s, registry %s", name, p.Tree() != nil, g, w)
			}
			if p.Tree() == nil && (name == string(AlgBnB) || name == string(AlgMultiStartLS)) {
				if gerr != nil || got.Bandwidth != 8 || got.Optimal != (name == string(AlgBnB)) {
					t.Errorf("%s on Fig. 1 = %s, want bandwidth 8", name, describeSolve(got, gerr))
				}
			}
		}
	}
}

func TestMultiStartFacade(t *testing.T) {
	p := fig1Problem(t)
	r, err := p.WithSeed(3).Solve(context.Background(), AlgMultiStartLS, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bandwidth != 8 || !r.Feasible {
		t.Fatalf("multi-start = %+v, want optimum 8", r)
	}
}

func TestSolveExactFacade(t *testing.T) {
	p := fig1Problem(t)
	r, err := p.Solve(context.Background(), AlgBnB, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Optimal || r.Bandwidth != 8 {
		t.Fatalf("exact solve = %+v, want certified 8", r)
	}
}

// describeSolve renders a solve's outcome with the bandwidth's bits,
// so equal strings mean bit-identical results.
func describeSolve(r Result, err error) string {
	return fmt.Sprintf("plan %v bw %#x feasible %v optimal %v interrupted %v err %s",
		r.Plan, math.Float64bits(r.Bandwidth), r.Feasible, r.Optimal, r.Interrupted, errText(err))
}

func TestNewStateFacade(t *testing.T) {
	p := fig1Problem(t)
	st := p.NewState(NewPlan())
	if st.Feasible() {
		t.Fatal("empty plan cannot be feasible on Fig. 1")
	}
	// Walk to the paper's k=2 plan {v2, v5} and cross-check against
	// Evaluate at every step.
	for _, v := range []NodeID{paperfix.V(2), paperfix.V(5)} {
		st.AddBox(v)
		want := p.Evaluate(st.Plan())
		if got := st.ExactBandwidth(); got != want.Bandwidth {
			t.Fatalf("state bandwidth %v != Evaluate %v after adding %v", got, want.Bandwidth, v)
		}
		if st.Feasible() != want.Feasible {
			t.Fatalf("feasibility mismatch after adding %v", v)
		}
	}
	if bw := st.ExactBandwidth(); bw != 12 {
		t.Fatalf("final bandwidth %v, want 12", bw)
	}
	// Mutations revert exactly.
	st.RemoveBox(paperfix.V(5))
	st.AddBox(paperfix.V(5))
	if bw := st.ExactBandwidth(); bw != 12 {
		t.Fatalf("revert drifted to %v", bw)
	}
}
