package netsim

import (
	"math"
	"testing"

	"tdmd/internal/paperfix"
)

func TestAllocateCapacitatedUnlimitedDefersToAllocate(t *testing.T) {
	in := fig1(t)
	p := NewPlan(paperfix.V(2), paperfix.V(5))
	want := in.Allocate(p)
	got := in.AllocateCapacitated(p, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flow %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestAllocateCapacitatedSpillAndStrand(t *testing.T) {
	in := fig1(t)
	// Only v3 deployed with capacity 4: FFD assigns f1 (rate 4) there;
	// f2 (rate 2, also through v3) no longer fits and has no other
	// box -> unserved.
	p := NewPlan(paperfix.V(3))
	alloc := in.AllocateCapacitated(p, 4)
	if alloc[0] != paperfix.V(3) {
		t.Fatalf("f1 at %v, want v3", alloc[0])
	}
	if alloc[1] != Unserved {
		t.Fatalf("f2 should be stranded, got %v", alloc[1])
	}
	// Capacity 6 fits both.
	for i, v := range in.AllocateCapacitated(NewPlan(paperfix.V(3), paperfix.V(2)), 6) {
		if v == Unserved {
			t.Fatalf("capacity 6 with v2+v3 left flow %d unserved", i)
		}
	}
}

func TestTotalBandwidthCapacitatedConsistent(t *testing.T) {
	in := fig1(t)
	p := NewPlan(paperfix.V(2), paperfix.V(3))
	for _, capacity := range []int{0, 4, 5, 100} {
		alloc := in.AllocateCapacitated(p, capacity)
		var want float64
		for i := range alloc {
			want += in.FlowBandwidth(i, alloc[i])
		}
		if got := in.TotalBandwidthCapacitated(p, capacity); math.Abs(got-want) > 1e-12 {
			t.Fatalf("capacity %d: %v != %v", capacity, got, want)
		}
	}
	// Unlimited equals the plain model.
	if in.TotalBandwidthCapacitated(p, 0) != in.TotalBandwidth(p) {
		t.Fatal("unlimited capacitated total differs from plain")
	}
}

func TestAllocateCapacitatedExpanding(t *testing.T) {
	g, flows, _ := paperfix.Fig1()
	in := MustNew(g, flows, 2.0)
	// Expanding with capacities: allocation walks from the destination.
	p := NewPlan(paperfix.V(3), paperfix.V(1))
	alloc := in.AllocateCapacitated(p, 100)
	// f1 (v5->v3->v1) picks v1, nearest its destination.
	if alloc[0] != paperfix.V(1) {
		t.Fatalf("expanding f1 at %v, want v1", alloc[0])
	}
}

// On the empty plan every flow is unserved, so the state's per-class
// coverage count must equal the length of CoveredBy's per-flow list
// at every vertex: the two coverage views agree.
func TestUnservedCoveredMatchesCoveredBy(t *testing.T) {
	in := fig1(t)
	cov := in.CoveredBy()
	s := NewState(in, NewPlan())
	for _, v := range in.G.Nodes() {
		if got := s.UnservedCovered(v); got != len(cov[v]) {
			t.Fatalf("vertex %d: UnservedCovered %d != CoveredBy list %d", v, got, len(cov[v]))
		}
	}
}

func TestStateHas(t *testing.T) {
	in := fig1(t)
	s := NewState(in, NewPlan(paperfix.V(5)))
	if !s.Has(paperfix.V(5)) || s.Has(paperfix.V(2)) {
		t.Fatal("Has broken")
	}
}
