package netsim

import (
	"math"
	"math/rand"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/paperfix"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

func TestStateMatchesModelFig1(t *testing.T) {
	in := fig1(t)
	s := NewState(in, NewPlan())
	if s.Bandwidth() != in.RawDemand() || s.Feasible() {
		t.Fatalf("fresh state: %v feasible=%v", s.Bandwidth(), s.Feasible())
	}
	s.AddBox(paperfix.V(5))
	if s.Bandwidth() != 12 { // f1 saved 4
		t.Fatalf("after v5: %v, want 12", s.Bandwidth())
	}
	s.AddBox(paperfix.V(2))
	if !s.Feasible() || s.Bandwidth() != 12 {
		t.Fatalf("after v2: %v feasible=%v", s.Bandwidth(), s.Feasible())
	}
	s.RemoveBox(paperfix.V(5))
	// f1 falls back to... no other box on its path -> unserved.
	if s.Feasible() {
		t.Fatal("v5 removal must strand f1")
	}
	if s.Bandwidth() != 16 {
		t.Fatalf("after removal: %v, want 16", s.Bandwidth())
	}
	// Idempotent no-ops.
	if d := s.RemoveBox(paperfix.V(5)); d != 0 {
		t.Fatalf("double remove delta = %v", d)
	}
	if d := s.AddBox(paperfix.V(2)); d != 0 {
		t.Fatalf("re-add delta = %v", d)
	}
}

func TestStateExpandingRegime(t *testing.T) {
	g, flows, _ := paperfix.Fig1()
	in := MustNew(g, flows, 1.5) // traffic-expanding: serve nearest the destination
	s := NewState(in, NewPlan())
	s.AddBox(paperfix.V(3)) // on f1's and f2's paths, mid-path
	wantAlloc := in.Allocate(s.Plan())
	for i := range flows {
		if s.Serving(i) != wantAlloc[i] {
			t.Fatalf("flow %d served at %v, model says %v", i, s.Serving(i), wantAlloc[i])
		}
	}
	// Deploying closer to a destination must move the expanding flows.
	s.AddBox(paperfix.V(1))
	wantAlloc = in.Allocate(s.Plan())
	for i := range flows {
		if s.Serving(i) != wantAlloc[i] {
			t.Fatalf("after v1: flow %d served at %v, model says %v", i, s.Serving(i), wantAlloc[i])
		}
	}
	if want := in.TotalBandwidth(s.Plan()); math.Abs(s.Bandwidth()-want) > 1e-9 {
		t.Fatalf("expanding bandwidth %v != model %v", s.Bandwidth(), want)
	}
}

// checkStateAgainstModel asserts every maintained and cached quantity
// of the state against the from-scratch model: allocation, bandwidth,
// feasibility, the unserved count, and — bit for bit — the per-vertex
// marginal and coverage scores. This is the metamorphic oracle the
// random-walk test and the fuzz target share.
func checkStateAgainstModel(t *testing.T, in *Instance, s *State) {
	t.Helper()
	p := s.Plan()
	wantBW := in.TotalBandwidth(p)
	if math.Abs(s.Bandwidth()-wantBW) > 1e-9*(1+wantBW) {
		t.Fatalf("incremental bandwidth %v != scratch %v (plan %v)", s.Bandwidth(), wantBW, p)
	}
	if got := s.ExactBandwidth(); math.Float64bits(got) != math.Float64bits(wantBW) {
		t.Fatalf("ExactBandwidth %v not bit-identical to TotalBandwidth %v", got, wantBW)
	}
	if s.Feasible() != in.Feasible(p) {
		t.Fatalf("feasibility mismatch on plan %v", p)
	}
	wantAlloc := in.Allocate(p)
	unserved := 0
	for i := range wantAlloc {
		if s.Serving(i) != wantAlloc[i] {
			t.Fatalf("flow %d served at %v, model says %v (plan %v)", i, s.Serving(i), wantAlloc[i], p)
		}
		if wantAlloc[i] == Unserved {
			unserved++
		}
	}
	if s.UnservedCount() != unserved {
		t.Fatalf("unserved count %d, model says %d", s.UnservedCount(), unserved)
	}
	for _, v := range in.G.Nodes() {
		wantGain := in.MarginalDecrement(p, wantAlloc, v)
		if got := s.MarginalGain(v); math.Float64bits(got) != math.Float64bits(wantGain) {
			t.Fatalf("vertex %d marginal %v not bit-identical to MarginalDecrement %v", v, got, wantGain)
		}
		wantCov := 0
		for i, a := range wantAlloc {
			if a == Unserved && in.FlowPath(i).Downstream(v) >= 0 {
				wantCov++
			}
		}
		if got := s.UnservedCovered(v); got != wantCov {
			t.Fatalf("vertex %d covers %d unserved, model says %d", v, got, wantCov)
		}
		pureGain, pureCov := s.VertexScore(v)
		if p.Has(v) {
			wantGain = 0 // deployed vertices carry no marginal
		}
		if math.Float64bits(pureGain) != math.Float64bits(wantGain) || pureCov != wantCov {
			t.Fatalf("vertex %d VertexScore (%v, %d) != (%v, %d)", v, pureGain, pureCov, wantGain, wantCov)
		}
	}
}

// Metamorphic property: after every step of a random AddBox/RemoveBox
// walk — across diminishing, neutral (λ=1) and expanding regimes — the
// incremental state equals a fresh from-scratch evaluation of the
// resulting plan. The deep version of this walk runs as FuzzStateOps
// under the fuzz smoke in scripts/check.sh.
func TestStateMatchesModelRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	lambdas := []float64{0, 0.3, 0.5, 0.9, 1, 1.5}
	for trial := 0; trial < 30; trial++ {
		g := topology.GeneralRandom(5+rng.Intn(15), 0.7, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.5, Seed: rng.Int63(), MaxFlows: 15})
		if len(flows) == 0 {
			continue
		}
		in := MustNew(g, flows, lambdas[trial%len(lambdas)])
		s := NewState(in, NewPlan())
		for op := 0; op < 50; op++ {
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if rng.Intn(2) == 0 {
				s.AddBox(v)
			} else {
				s.RemoveBox(v)
			}
			checkStateAgainstModel(t, in, s)
		}
	}
}

func TestStateRevertExact(t *testing.T) {
	in := fig1(t)
	base := NewPlan(paperfix.V(2), paperfix.V(5))
	s := NewState(in, base)
	before := s.Bandwidth()
	// Probe a swap and revert it.
	s.RemoveBox(paperfix.V(2))
	s.AddBox(paperfix.V(3))
	s.RemoveBox(paperfix.V(3))
	s.AddBox(paperfix.V(2))
	if math.Abs(s.Bandwidth()-before) > 1e-12 {
		t.Fatalf("revert drifted: %v vs %v", s.Bandwidth(), before)
	}
	if s.Plan().String() != base.String() {
		t.Fatalf("plan not restored: %v", s.Plan())
	}
}

// TestStateFlatMirror drives random mutations and checks the flat
// deployment mirror behind Has/AppendVertices against the plan map:
// Has must agree with Plan().Has for every vertex, and AppendVertices
// must yield exactly Plan().Vertices() (same vertices, same increasing
// order) while reusing the caller's buffer.
func TestStateFlatMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		g := topology.GeneralRandom(6+rng.Intn(12), 0.7, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.5, Seed: rng.Int63(), MaxFlows: 12})
		if len(flows) == 0 {
			continue
		}
		in := MustNew(g, flows, 0.5)
		s := NewState(in, NewPlan())
		buf := make([]graph.NodeID, 0, g.NumNodes())
		for op := 0; op < 60; op++ {
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if rng.Intn(2) == 0 {
				s.AddBox(v)
			} else {
				s.RemoveBox(v)
			}
			p := s.Plan()
			for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
				if s.Has(u) != p.Has(u) {
					t.Fatalf("op %d: Has(%d)=%v, plan says %v", op, u, s.Has(u), p.Has(u))
				}
			}
			buf = s.AppendVertices(buf[:0])
			want := p.Vertices()
			if len(buf) != len(want) {
				t.Fatalf("op %d: AppendVertices yields %v, want %v", op, buf, want)
			}
			for i := range buf {
				if buf[i] != want[i] {
					t.Fatalf("op %d: AppendVertices yields %v, want %v", op, buf, want)
				}
			}
		}
	}
}

func TestStateClonesItsPlan(t *testing.T) {
	in := fig1(t)
	p := NewPlan(paperfix.V(5))
	s := NewState(in, p)
	p.Add(paperfix.V(2)) // caller's copy must stay independent
	if s.Has(paperfix.V(2)) {
		t.Fatal("state shares the caller's plan")
	}
	got := s.Plan()
	got.Add(paperfix.V(1))
	if s.Has(paperfix.V(1)) {
		t.Fatal("Plan() exposes the internal plan")
	}
}

// FuzzStateOps is the deep mode of the metamorphic walk: the fuzzer
// explores operation sequences (and instance shapes, via the seed) and
// every step is checked against the from-scratch model.
func FuzzStateOps(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 131, 4, 5, 133, 7})
	f.Add(int64(7), []byte{10, 138, 10, 138, 10, 138})
	f.Add(int64(42), []byte{0, 128, 1, 129, 2, 130, 3, 131})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		rng := rand.New(rand.NewSource(seed))
		g := topology.GeneralRandom(5+rng.Intn(12), 0.7, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0}, traffic.GenConfig{
			Density: 0.5, Seed: rng.Int63(), MaxFlows: 12})
		if len(flows) == 0 {
			t.Skip("no flows")
		}
		lambdas := []float64{0, 0.5, 1, 1.5}
		in := MustNew(g, flows, lambdas[int(seed%4+4)%4])
		s := NewState(in, NewPlan())
		for _, op := range ops {
			v := graph.NodeID(int(op&0x7f) % g.NumNodes())
			if op&0x80 == 0 {
				s.AddBox(v)
			} else {
				s.RemoveBox(v)
			}
			checkStateAgainstModel(t, in, s)
		}
	})
}
