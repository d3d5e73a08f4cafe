package netsim

import (
	"math/rand"
	"sort"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// FuzzPathSpanRoundTrip checks the path interning done at ingest on
// workloads that repeat paths: every flow's class span reads back its
// input path exactly and yields its hop count, two flows share a class
// exactly when their paths are equal, and the classes are numbered as
// referenceClasses numbers them.
func FuzzPathSpanRoundTrip(f *testing.F) {
	f.Add(int64(1), 8, 3)
	f.Add(int64(7), 20, 1)
	f.Add(int64(42), 5, 9)
	f.Fuzz(func(t *testing.T, seed int64, size, srcs int) {
		size = 5 + (size%26+26)%26
		srcs = 1 + (srcs%4+4)%4
		rng := rand.New(rand.NewSource(seed))
		g := topology.GeneralRandom(size, 0.7, rng.Int63())
		sources := make([]graph.NodeID, srcs)
		for i := range sources {
			sources[i] = graph.NodeID(i % size)
		}
		base := traffic.GeneralFlows(g, sources, traffic.GenConfig{
			Density: 0.6, Seed: rng.Int63(), MaxFlows: 40})
		if len(base) == 0 {
			t.Skip("no flows")
		}
		flows := make([]traffic.Flow, 3*len(base))
		paths := make([]graph.Path, len(flows))
		for i := range flows {
			paths[i] = base[rng.Intn(len(base))].Path
			flows[i] = traffic.Flow{ID: i, Rate: 1 + rng.Intn(9), Path: paths[i]}
		}
		in := MustNew(g, flows, 0.5)
		want := referenceClasses(paths)
		for i, fl := range flows {
			if !pathsEqual(in.FlowPath(i), fl.Path) {
				t.Fatalf("flow %d: span %v, input path %v", i, in.FlowPath(i), fl.Path)
			}
			if in.flowHops(i) != fl.Hops() {
				t.Fatalf("flow %d: span hops %d, Flow.Hops %d", i, in.flowHops(i), fl.Hops())
			}
			if in.FlowClass(i) != int(want[i]) {
				t.Fatalf("flow %d: class %d, reference interning %d", i, in.FlowClass(i), want[i])
			}
			for j := range i {
				if same := in.FlowClass(i) == in.FlowClass(j); same != pathsEqual(paths[i], paths[j]) {
					t.Fatalf("flows %d and %d: same class %v, paths %v and %v", j, i, same, paths[j], paths[i])
				}
			}
		}
	})
}

// referenceClasses is the interning the instance did before the
// builder took it over, kept as an oracle: an open-addressing table of
// at least 2|F| slots maps each path to its first flow, and classes
// are numbered in order of first occurrence.
func referenceClasses(paths []graph.Path) []int32 {
	tableLen := 1
	for tableLen < 2*len(paths) {
		tableLen <<= 1
	}
	table := make([]int32, tableLen)
	mask := uint64(tableLen - 1)
	class := make([]int32, len(paths))
	classes := int32(0)
	for i, path := range paths {
		for slot := hashPath(path) & mask; ; slot = (slot + 1) & mask {
			rep := table[slot] - 1
			if rep < 0 {
				table[slot] = int32(i) + 1
				class[i] = classes
				classes++
				break
			}
			if pathsEqual(paths[rep], path) {
				class[i] = class[rep]
				break
			}
		}
	}
	return class
}

// referenceAllocateCapacitated is the pre-arena implementation of the
// first-fit-decreasing capacitated assignment, kept verbatim as a
// metamorphic oracle: it reads the workload's own Path slices instead
// of the instance's interned arena. AllocateCapacitated must match it
// bit for bit on any instance.
func referenceAllocateCapacitated(in *Instance, p Plan, capacity int) Allocation {
	if capacity <= 0 {
		return in.Allocate(p)
	}
	flows := in.Flows()
	alloc := make(Allocation, len(flows))
	for i := range alloc {
		alloc[i] = Unserved
	}
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		fa, fb := flows[order[a]], flows[order[b]]
		if fa.Rate != fb.Rate {
			return fa.Rate > fb.Rate
		}
		return order[a] < order[b]
	})
	residual := map[graph.NodeID]int{}
	for _, v := range p.Vertices() {
		residual[v] = capacity
	}
	for _, i := range order {
		f := flows[i]
		if in.Lambda <= 1 {
			for _, v := range f.Path {
				if p.Has(v) && residual[v] >= f.Rate {
					alloc[i] = v
					residual[v] -= f.Rate
					break
				}
			}
		} else {
			for j := len(f.Path) - 1; j >= 0; j-- {
				v := f.Path[j]
				if p.Has(v) && residual[v] >= f.Rate {
					alloc[i] = v
					residual[v] -= f.Rate
					break
				}
			}
		}
	}
	return alloc
}

// Metamorphic check: the arena-backed AllocateCapacitated equals the
// path-slice reference on random instances, plans, capacities, and
// both middlebox regimes.
func TestAllocateCapacitatedMatchesReferenceOnArena(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		g := topology.GeneralRandom(5+rng.Intn(20), 0.7, rng.Int63())
		flows := traffic.GeneralFlows(g, []graph.NodeID{0, 1}, traffic.GenConfig{
			Density: 0.5, Seed: rng.Int63(), MaxFlows: 30})
		if len(flows) == 0 {
			continue
		}
		lambda := []float64{0, 0.5, 1, 1.5}[trial%4]
		in := MustNew(g, flows, lambda)
		var p Plan
		for v := 0; v < g.NumNodes(); v++ {
			if rng.Intn(3) == 0 {
				p.Add(graph.NodeID(v))
			}
		}
		for _, capacity := range []int{0, 1, 5, 50} {
			got := in.AllocateCapacitated(p, capacity)
			want := referenceAllocateCapacitated(in, p, capacity)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d λ=%v cap=%d flow %d: arena alloc %d, reference %d",
						trial, lambda, capacity, i, got[i], want[i])
				}
			}
		}
	}
}
