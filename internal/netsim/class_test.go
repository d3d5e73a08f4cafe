package netsim

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"tdmd/internal/graph"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// repeatedPathFlows draws shortest-path flows from random sources to
// three hubs: with far more flows than sources, most paths repeat.
func repeatedPathFlows(rng *rand.Rand, nodes, flows int) (*graph.Graph, []traffic.Flow) {
	g := topology.GeneralRandom(nodes, 0.5, rng.Int63())
	fl := traffic.GeneralFlows(g, []graph.NodeID{0, 1, 2}, traffic.GenConfig{
		Density: 1e9, Dist: traffic.Uniform{Lo: 1, Hi: 50}, Seed: rng.Int63(), MaxFlows: flows})
	return g, fl
}

// flowModel is the per-flow reference the class-based state must
// reproduce: every flow allocated by scanning its own path, every
// score summed flow by flow.
type flowModel struct {
	in    *Instance
	alloc Allocation
	down  []int // l at the serving vertex; -1 when unserved
}

func newFlowModel(in *Instance, p Plan) flowModel {
	m := flowModel{in: in, alloc: make(Allocation, in.NumFlows()), down: make([]int, in.NumFlows())}
	for i := range m.alloc {
		m.alloc[i], m.down[i] = Unserved, -1
		path := in.FlowPath(i)
		for j := range path {
			if in.Lambda > 1 {
				j = len(path) - 1 - j
			}
			if p.Has(path[j]) {
				m.alloc[i], m.down[i] = path[j], len(path)-1-j
				break
			}
		}
	}
	return m
}

// score returns v's marginal (exact per-flow sum, scaled once) and the
// unserved flows through v.
func (m flowModel) score(p Plan, v graph.NodeID) (float64, int) {
	var sum int64
	covered := 0
	for i := range m.alloc {
		l := m.in.FlowPath(i).Downstream(v)
		if l < 0 {
			continue
		}
		cur := m.down[i]
		if cur < 0 {
			covered++
		}
		moves := l > max(cur, 0)
		if m.in.Lambda > 1 {
			moves = cur < 0 || l < cur
		}
		if moves {
			sum += int64(m.in.FlowRate(i)) * int64(l-max(cur, 0))
		}
	}
	if p.Has(v) || sum == 0 {
		return 0, covered
	}
	return float64(sum) * (1 - m.in.Lambda), covered
}

// TestClassStateMatchesFlowModel is the class-vs-model differential:
// on workloads where most paths carry many flows, a random
// AddBox/RemoveBox walk must leave the class-based state equal to the
// per-flow reference in every observable — allocation, unserved set
// and count, bandwidth (exact and per-flow), and every vertex's scores
// bit for bit — below, at and above λ = 1.
func TestClassStateMatchesFlowModel(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 24; trial++ {
		g, flows := repeatedPathFlows(rng, 10+rng.Intn(20), 50+rng.Intn(150))
		lambda := []float64{0.3, 1, 1.7}[trial%3]
		in := MustNew(g, flows, lambda)
		if in.NumClasses() >= len(flows) {
			t.Fatalf("trial %d: %d classes for %d flows, want repeated paths", trial, in.NumClasses(), len(flows))
		}
		s := NewState(in, NewPlan())
		for op := 0; op < 40; op++ {
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if rng.Intn(3) == 0 {
				s.RemoveBox(v)
			} else {
				s.AddBox(v)
			}
			p := s.Plan()
			m := newFlowModel(in, p)
			var dec int64
			var perFlow float64
			unserved := 0
			for i, at := range m.alloc {
				if s.Serving(i) != at {
					t.Fatalf("trial %d op %d: flow %d served at %d, model %d", trial, op, i, s.Serving(i), at)
				}
				if at == Unserved {
					unserved++
				} else {
					dec += int64(in.FlowRate(i)) * int64(m.down[i])
				}
				perFlow += in.FlowBandwidth(i, at)
			}
			if s.UnservedCount() != unserved {
				t.Fatalf("trial %d op %d: %d unserved, model %d", trial, op, s.UnservedCount(), unserved)
			}
			if want := in.RawDemand() - (1-lambda)*float64(dec); math.Float64bits(s.Bandwidth()) != math.Float64bits(want) {
				t.Fatalf("trial %d op %d: bandwidth %v, exact model %v", trial, op, s.Bandwidth(), want)
			}
			if math.Float64bits(s.ExactBandwidth()) != math.Float64bits(perFlow) {
				t.Fatalf("trial %d op %d: ExactBandwidth %v, per-flow sum %v", trial, op, s.ExactBandwidth(), perFlow)
			}
			for u := range g.Nodes() {
				wantGain, wantCov := m.score(p, graph.NodeID(u))
				gain, cov := s.VertexScore(graph.NodeID(u))
				if math.Float64bits(gain) != math.Float64bits(wantGain) || cov != wantCov {
					t.Fatalf("trial %d op %d: vertex %d scores (%v, %d), model (%v, %d)", trial, op, u, gain, cov, wantGain, wantCov)
				}
			}
		}
	}
}

// FuzzPathClasses checks the path-class interning: every flow's class
// path equals its own span, class multiplicities sum to |F|, class
// rates sum their members' rates, classes are numbered in order of
// first occurrence, equal paths share a class, and each through row
// lists distinct classes with the downstream count of that vertex.
func FuzzPathClasses(f *testing.F) {
	f.Add(int64(1), 10, 60)
	f.Add(int64(7), 30, 200)
	f.Add(int64(42), 5, 3)
	f.Fuzz(func(t *testing.T, seed int64, nodes, flows int) {
		nodes = 5 + (nodes%40+40)%40
		flows = 1 + (flows%300+300)%300
		g, fl := repeatedPathFlows(rand.New(rand.NewSource(seed)), nodes, flows)
		if len(fl) == 0 {
			t.Skip("no flows")
		}
		in := MustNew(g, fl, 0.5)
		mult := make([]int, in.NumClasses())
		rate := make([]int64, in.NumClasses())
		next := 0 // the next class id a first occurrence may take
		for i := range fl {
			c := int(in.flowClass[i])
			if c > next {
				t.Fatalf("flow %d opens class %d before class %d", i, c, next)
			}
			if c == next {
				next++
				if in.ClassFlow(c) != i {
					t.Fatalf("class %d first occurs at flow %d, records flow %d", c, i, in.ClassFlow(c))
				}
			}
			if !pathsEqual(in.classPath(c), in.FlowPath(i)) {
				t.Fatalf("flow %d: class %d path %v, own span %v", i, c, in.classPath(c), in.FlowPath(i))
			}
			mult[c]++
			rate[c] += int64(fl[i].Rate)
		}
		if next != in.NumClasses() {
			t.Fatalf("%d classes opened, instance has %d", next, in.NumClasses())
		}
		total := 0
		for c := range mult {
			total += in.ClassSize(c)
			if in.ClassSize(c) != mult[c] || in.classes[c].rate != rate[c] {
				t.Fatalf("class %d: size %d rate %d, members give %d and %d", c, in.ClassSize(c), in.classes[c].rate, mult[c], rate[c])
			}
			for d := 0; d < c; d++ {
				if pathsEqual(in.classPath(c), in.classPath(d)) {
					t.Fatalf("classes %d and %d share path %v", d, c, in.classPath(c))
				}
			}
		}
		if total != len(fl) {
			t.Fatalf("multiplicities sum to %d, want %d flows", total, len(fl))
		}
		for v := range g.Nodes() {
			seen := make(map[int32]bool)
			for _, fa := range in.Through(graph.NodeID(v)) {
				if seen[fa.Class] {
					t.Fatalf("vertex %d lists class %d twice", v, fa.Class)
				}
				seen[fa.Class] = true
				if l := in.classPath(int(fa.Class)).Downstream(graph.NodeID(v)); l != int(fa.Downstream) {
					t.Fatalf("vertex %d class %d: downstream %d, path says %d", v, fa.Class, fa.Downstream, l)
				}
			}
		}
	})
}

// TestDemandOverflowGuard pins the int64 bound exact scoring relies
// on. An instance whose Σ r_f·|p_f| overflows needs over 4·10⁹ path
// hops (rates are int32), far beyond a test's memory, so the guard's
// accumulation step is checked at the boundary directly.
func TestDemandOverflowGuard(t *testing.T) {
	if sum, err := AddDemand(math.MaxInt64-6, 0, 3, 2); err != nil || sum != math.MaxInt64 {
		t.Fatalf("sum reaching MaxInt64 rejected: %d, %v", sum, err)
	}
	_, err := AddDemand(math.MaxInt64-5, 7, 3, 2)
	if want := "netsim: total demand Σ r·|p| overflows int64 at flow 7"; err == nil || err.Error() != want {
		t.Fatalf("sum past MaxInt64: err = %v, want %q", err, want)
	}
	if _, err := AddDemand(math.MaxInt64, 0, math.MaxInt32, 0); err != nil {
		t.Fatalf("zero-hop term rejected: %v", err)
	}
	sum := int64(0)
	err = nil
	for i := 0; i < 4 && err == nil; i++ {
		sum, err = AddDemand(sum, i, math.MaxInt32, math.MaxInt32)
	}
	if err == nil {
		t.Fatalf("four maximal terms accepted: %d", sum)
	}
}

// TestClassArenaSmallerThanFlowLayout: 1,000 flows over 10 distinct
// paths must report fewer arena bytes than the per-flow layout, whose
// through arena held a 16-byte entry per flow per path vertex.
func TestClassArenaSmallerThanFlowLayout(t *testing.T) {
	g := topology.GeneralRandom(40, 0.5, 3)
	var paths []graph.Path
	for src := graph.NodeID(3); len(paths) < 10; src++ {
		p, err := g.ShortestPath(src, 0)
		if err != nil || len(p) < 3 {
			continue
		}
		paths = append(paths, p)
	}
	flows := make([]traffic.Flow, 1000)
	hops := 0
	for i := range flows {
		flows[i] = traffic.Flow{ID: i, Rate: 1 + i%7, Path: paths[i%len(paths)]}
		hops += len(flows[i].Path)
	}
	in := MustNew(g, flows, 0.5)
	if in.NumClasses() != len(paths) {
		t.Fatalf("%d classes, want %d", in.NumClasses(), len(paths))
	}
	const perFlowEntry = 16 // FlowAt{Flow, Downstream int}
	perFlow := int64(hops)*(perFlowEntry+int64(unsafe.Sizeof(graph.NodeID(0)))) +
		int64(len(flows))*4 + // rates
		int64(g.NumNodes()+1+len(flows)+1)*4 // offset tables
	arena := in.MemoryFootprint()
	if arena >= perFlow {
		t.Fatalf("class layout reports %d arena bytes, per-flow layout %d", arena, perFlow)
	}
	classEntries := 0
	for v := range g.Nodes() {
		classEntries += len(in.Through(graph.NodeID(v)))
	}
	classHops := 0
	for _, p := range paths {
		classHops += len(p)
	}
	if want := int64(classEntries)*int64(unsafe.Sizeof(FlowAt{})) +
		int64(classHops)*int64(unsafe.Sizeof(graph.NodeID(0))) + // one span per class
		int64(len(flows))*(4+4) + // rates, flowClass
		int64(len(paths))*int64(unsafe.Sizeof(pathClass{})) +
		int64(g.NumNodes()+1+len(paths)+1)*4; arena != want { // throughOff, classOff
		t.Fatalf("arena bytes %d, want %d counting the class tables", arena, want)
	}
}
