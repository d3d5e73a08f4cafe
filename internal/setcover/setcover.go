// Package setcover implements greedy set cover and the Theorem-1
// reduction between the set-cover decision problem and TDMD
// feasibility, in both directions. The reduction is what makes the
// feasibility check NP-hard; having it executable lets tests (and the
// curious reader) verify the construction on concrete instances.
package setcover

import (
	"fmt"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/traffic"
)

// Instance is a set-cover instance: a universe {0..N-1} and a
// collection of subsets.
type Instance struct {
	N    int     // universe size; elements are 0..N-1
	Sets [][]int // each set lists its elements
}

// Validate checks that every element index is in range and the union
// of all sets covers the universe.
func (in Instance) Validate() error {
	covered := make([]bool, in.N)
	for si, s := range in.Sets {
		for _, e := range s {
			if e < 0 || e >= in.N {
				return fmt.Errorf("setcover: set %d contains out-of-range element %d", si, e)
			}
			covered[e] = true
		}
	}
	for e, c := range covered {
		if !c {
			return fmt.Errorf("setcover: element %d not covered by any set", e)
		}
	}
	return nil
}

// Greedy returns the indices of sets chosen by the classic greedy
// cover (pick the set covering the most uncovered elements, ties to
// the lowest index). The result covers the universe whenever Validate
// passes; its size is within H(n) of the optimum.
func Greedy(in Instance) []int {
	uncovered := make(map[int]bool, in.N)
	for e := 0; e < in.N; e++ {
		uncovered[e] = true
	}
	var chosen []int
	for len(uncovered) > 0 {
		best, bestCnt := -1, 0
		for si, s := range in.Sets {
			cnt := 0
			for _, e := range s {
				if uncovered[e] {
					cnt++
				}
			}
			if cnt > bestCnt {
				best, bestCnt = si, cnt
			}
		}
		if best < 0 {
			return nil // uncoverable
		}
		for _, e := range in.Sets[best] {
			delete(uncovered, e)
		}
		chosen = append(chosen, best)
	}
	return chosen
}

// Covers reports whether the chosen set indices cover the universe.
func (in Instance) Covers(chosen []int) bool {
	covered := make([]bool, in.N)
	for _, si := range chosen {
		if si < 0 || si >= len(in.Sets) {
			return false
		}
		for _, e := range in.Sets[si] {
			covered[e] = true
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return true
}

// OptimalSize finds the minimum cover size by exhaustive search; only
// for small instances (<= ~20 sets) used in tests.
func OptimalSize(in Instance) int {
	m := len(in.Sets)
	if m > 24 {
		panic("setcover: OptimalSize limited to 24 sets")
	}
	best := -1
	for mask := 0; mask < 1<<m; mask++ {
		var chosen []int
		for si := 0; si < m; si++ {
			if mask&(1<<si) != 0 {
				chosen = append(chosen, si)
			}
		}
		if in.Covers(chosen) && (best < 0 || len(chosen) < best) {
			best = len(chosen)
		}
	}
	return best
}

// ToTDMD builds the Theorem-1 TDMD instance equivalent to the
// set-cover instance: one vertex per set, one flow per element, where
// flow e's path is a directed line visiting exactly the vertices of
// the sets containing e (plus a private sink vertex so every path has
// at least one edge even for elements in a single set). A deployment
// of k vertices serves all flows iff the corresponding k sets cover
// the universe.
func ToTDMD(in Instance) (*graph.Graph, []traffic.Flow, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	g := graph.New()
	setVertex := make([]graph.NodeID, len(in.Sets))
	for si := range in.Sets {
		setVertex[si] = g.AddNode(fmt.Sprintf("S%d", si))
	}
	// Fully connect set vertices (both directions) so any visiting
	// order forms a valid path — the reduction's "fully-connected"
	// construction.
	for i := range setVertex {
		for j := range setVertex {
			if i != j {
				g.AddEdge(setVertex[i], setVertex[j])
			}
		}
	}
	flows := make([]traffic.Flow, 0, in.N)
	for e := 0; e < in.N; e++ {
		var path graph.Path
		for si, s := range in.Sets {
			for _, el := range s {
				if el == e {
					path = append(path, setVertex[si])
					break
				}
			}
		}
		// Private sink: guarantees >= 1 edge and keeps the element's
		// middlebox options exactly its containing sets.
		sink := g.AddNode(fmt.Sprintf("sink%d", e))
		if len(path) > 0 {
			g.AddEdge(path[len(path)-1], sink)
		}
		path = append(path, sink)
		flows = append(flows, traffic.Flow{ID: e, Rate: 1, Path: path})
	}
	return g, flows, nil
}

// FromTDMD extracts the set-cover structure of an arbitrary TDMD
// instance: universe = flows, one set per vertex containing the flows
// whose paths visit it. A feasible deployment of size k exists iff
// this instance has a k-cover — the reverse direction of Theorem 1.
func FromTDMD(in *netsim.Instance) Instance {
	cov := in.CoveredBy()
	sets := make([][]int, len(cov))
	for v, flows := range cov {
		sets[v] = append([]int(nil), flows...)
	}
	return Instance{N: in.NumFlows(), Sets: sets}
}
