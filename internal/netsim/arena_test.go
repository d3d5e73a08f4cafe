package netsim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/traffic"
)

// pathsEqual compares two paths hop by hop.
func pathsEqual(a, b graph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// arenaFixture returns a path graph a-b-c-d with two flows.
func arenaFixture() (*graph.Graph, []traffic.Flow) {
	g := graph.New()
	for _, n := range []string{"a", "b", "c", "d"} {
		g.AddNode(n)
	}
	g.AddBiEdge(0, 1)
	g.AddBiEdge(1, 2)
	g.AddBiEdge(2, 3)
	flows := []traffic.Flow{
		{ID: 0, Rate: 2, Path: graph.Path{0, 1, 2, 3}},
		{ID: 1, Rate: 5, Path: graph.Path{3, 2}},
	}
	return g, flows
}

// buildFlows feeds flows to a Builder one AddFlowPath at a time, the
// way the streaming decoders do.
func buildFlows(t *testing.T, g *graph.Graph, flows []traffic.Flow) *Instance {
	t.Helper()
	b := NewBuilder(g)
	for _, f := range flows {
		if err := b.AddFlowPath(f.Rate, f.Path); err != nil {
			t.Fatal(err)
		}
	}
	in, err := b.Build(0.5)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestBuilderMatchesNew: a flow-by-flow build must produce an instance
// indistinguishable from New over the same workload.
func TestBuilderMatchesNew(t *testing.T) {
	g, flows := arenaFixture()
	ref, err := New(g, flows, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got := buildFlows(t, g, flows)
	if got.NumFlows() != ref.NumFlows() {
		t.Fatalf("NumFlows: %d vs %d", got.NumFlows(), ref.NumFlows())
	}
	if got.RawDemand() != ref.RawDemand() {
		t.Fatalf("RawDemand: %v vs %v", got.RawDemand(), ref.RawDemand())
	}
	for i := 0; i < ref.NumFlows(); i++ {
		if got.FlowRate(i) != ref.FlowRate(i) {
			t.Errorf("flow %d rate: %d vs %d", i, got.FlowRate(i), ref.FlowRate(i))
		}
		if !pathsEqual(got.FlowPath(i), ref.FlowPath(i)) {
			t.Errorf("flow %d path: %v vs %v", i, got.FlowPath(i), ref.FlowPath(i))
		}
	}
	plan := NewPlan()
	plan.Add(2)
	if a, b := got.Decrement(plan), ref.Decrement(plan); a != b {
		t.Errorf("Decrement: %v vs %v", a, b)
	}
	allocGot, allocRef := got.Allocate(plan), ref.Allocate(plan)
	for i := range allocRef {
		if allocGot[i] != allocRef[i] {
			t.Errorf("alloc[%d]: %v vs %v", i, allocGot[i], allocRef[i])
		}
	}
}

// TestBuilderFlowsView: the lazy []Flow view over the arenas must
// reproduce the flows, numbered by index, without copying the paths —
// for New and for a flow-by-flow build alike.
func TestBuilderFlowsView(t *testing.T) {
	g, flows := arenaFixture()
	// New numbers flows by index, whatever IDs the caller gave.
	renumbered := []traffic.Flow{flows[0], flows[1]}
	renumbered[0].ID, renumbered[1].ID = 40, 41
	fromNew, err := New(g, renumbered, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*Instance{fromNew, buildFlows(t, g, flows)} {
		view := in.Flows()
		if len(view) != len(flows) {
			t.Fatalf("view has %d flows, want %d", len(view), len(flows))
		}
		for i, f := range view {
			if f.ID != i || f.Rate != flows[i].Rate || !pathsEqual(f.Path, flows[i].Path) {
				t.Errorf("view[%d] = %+v, want %+v", i, f, flows[i])
			}
			if one := in.Flow(i); one.ID != f.ID || one.Rate != f.Rate || !pathsEqual(one.Path, f.Path) {
				t.Errorf("Flow(%d) = %+v disagrees with Flows()[%d] = %+v", i, one, i, f)
			}
			if &f.Path[0] != &in.FlowPath(i)[0] {
				t.Errorf("view[%d] path is a copy, not an arena span", i)
			}
		}
		// The view is built once and cached.
		if &in.Flows()[0] != &view[0] {
			t.Error("Flows() rebuilt the view")
		}
	}
}

// TestBuilderValidatesFlows: per-flow validation must match
// traffic.Validate — typed PathErrors for bad spans — and a rejected
// flow must leave the builder usable.
func TestBuilderValidatesFlows(t *testing.T) {
	g, _ := arenaFixture()
	b := NewBuilder(g)
	// 0 -> 2 is not an edge.
	err := b.AddFlowPath(1, graph.Path{0, 2})
	if err == nil {
		t.Fatal("non-adjacent hop accepted")
	}
	if !errors.Is(err, traffic.ErrInvalidPath) {
		t.Fatalf("not ErrInvalidPath: %v", err)
	}
	var pe *traffic.PathError
	if !errors.As(err, &pe) || pe.Flow != 0 {
		t.Fatalf("bad PathError: %v", err)
	}
	// Zero-length span.
	if err := b.AddFlow(1, nil); !errors.As(err, &pe) || pe.Flow != 0 {
		t.Fatalf("empty span: %v, want a PathError for flow 0", err)
	}
	if err := b.AddFlow(1, []int{0, 1}); err != nil {
		t.Fatalf("builder unusable after rejections: %v", err)
	}
	in, err := b.Build(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumFlows() != 1 || !pathsEqual(in.FlowPath(0), graph.Path{0, 1}) {
		t.Fatalf("built %d flows, first %v; want the one valid flow", in.NumFlows(), in.FlowPath(0))
	}
}

// A path arena longer than math.MaxInt32 entries cannot be addressed
// by the int32 offsets; the check runs on counts, so the boundary is
// tested without allocating the 8 GiB such an arena would take.
func TestCheckPathOffset(t *testing.T) {
	for _, end := range []int64{0, 1, math.MaxInt32} {
		if err := checkPathOffset(3, end); err != nil {
			t.Fatalf("end %d rejected: %v", end, err)
		}
	}
	for _, end := range []int64{math.MaxInt32 + 1, math.MaxUint32 + 2} {
		err := checkPathOffset(3, end)
		var ae *ArenaOverflowError
		if !errors.As(err, &ae) || ae.Flow != 3 || ae.End != end {
			t.Fatalf("end %d: got %v, want an *ArenaOverflowError for flow 3", end, err)
		}
		const want = "netsim: flow 3 ends the path arena at "
		if !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("error text %q, want prefix %q", err, want)
		}
	}
}

// TestArenaViewsAppendCopies: appending to a flow's path through
// FlowPath or the Flows view must copy, not write the next class's
// hops in the shared arena — paths are fixed once built (Sec. 3).
func TestArenaViewsAppendCopies(t *testing.T) {
	g, flows := arenaFixture()
	in := buildFlows(t, g, flows)
	raw := math.Float64bits(in.RawDemand())
	plan := NewPlan(2)
	bw := math.Float64bits(in.TotalBandwidth(plan))
	for _, view := range []struct {
		name string
		path func() graph.Path
	}{
		{"FlowPath", func() graph.Path { return in.FlowPath(0) }},
		{"Flows", func() graph.Path { return in.Flows()[0].Path }},
	} {
		name, path := view.name, view.path
		grown := append(path(), 1)
		if len(grown) != len(flows[0].Path)+1 || !pathsEqual(path(), flows[0].Path) {
			t.Errorf("%s: append changed flow 0's path to %v", name, path())
		}
		if got := in.FlowPath(1); !pathsEqual(got, flows[1].Path) {
			t.Errorf("%s: append rewrote flow 1's path to %v, want %v", name, got, flows[1].Path)
		}
		if got := in.Flows()[1].Path; !pathsEqual(got, flows[1].Path) {
			t.Errorf("%s: Flows()[1].Path = %v, want %v", name, got, flows[1].Path)
		}
		if math.Float64bits(in.RawDemand()) != raw || math.Float64bits(in.TotalBandwidth(plan)) != bw {
			t.Errorf("%s: RawDemand %v / bandwidth %v changed", name, in.RawDemand(), in.TotalBandwidth(plan))
		}
	}
}
