package lint

import (
	"strings"
	"testing"
)

// The fixtures below reproduce, one per analyzer, the shape of a fault
// that only that analyzer catches on the real tree. Written into a copy
// of the module, each passed vet, `go test -race ./...`, the hammers,
// the fuzz smoke (bar a FuzzReadTrace input that fails at the parent
// too), the other analyzers, the escape diff and the serve allocation
// gate (EXPERIMENTS.md "Which analyzers earn their lines"). If a
// refactor blinds an analyzer to its fault, the matching case fails
// here.

// fakeHTTPWriter stubs the net/http response-writer surface.
const fakeHTTPWriter = `package http

type ResponseWriter interface {
	Write(b []byte) (int, error)
}
`

func TestSoleCatchMutants(t *testing.T) {
	cases := []struct {
		analyzer string
		pkgs     []srcPkg
		want     string // substring of the single finding
	}{
		{
			// JobStore.Get without the store lock: a GET racing a POST
			// that grows the map. No test polls a job while another
			// is created, so -race never sees it.
			analyzer: "guardedby",
			pkgs: []srcPkg{{"sync", fakeSync}, {"tdmd/internal/serve", `package serve

import "sync"

type JobStore struct {
	mu    sync.Mutex
	jobs  map[string]int
	order []string
}

func (s *JobStore) Add(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) > 8 {
		s.evictOldest()
	}
	s.jobs[id] = len(s.order)
	s.order = append(s.order, id)
}

// evictOldest runs with s.mu held.
func (s *JobStore) evictOldest() {
	delete(s.jobs, s.order[0])
	s.order = s.order[1:]
}

func (s *JobStore) Get(id string) int { return s.jobs[id] }
`}},
			want: "read of tdmd/internal/serve.JobStore.jobs without tdmd/internal/serve.JobStore.mu",
		},
		{
			// A read lock re-taken through a helper while held: it
			// deadlocks only when a registration (a writer) arrives
			// between the two RLocks, which no test arranges.
			analyzer: "lockorder",
			pkgs: []srcPkg{{"sync", fakeSync}, {"tdmd/internal/obs", `package obs

import "sync"

type Registry struct {
	mu       sync.RWMutex
	families map[string]int
}

func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.families)
}

func (r *Registry) sortedFamilies() []int {
	r.mu.RLock()
	out := make([]int, 0, r.Len())
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	return out
}
`}},
			want: "acquired while already held",
		},
		{
			// A job poll answered while holding the job-store lock: a
			// slow reader stalls every job operation. Tests read
			// responses promptly, so nothing times out.
			analyzer: "holdblock",
			pkgs: []srcPkg{{"sync", fakeSync}, {"net/http", fakeHTTPWriter}, {"tdmd/internal/serve", `package serve

import (
	"net/http"
	"sync"
)

type JobStore struct {
	mu   sync.Mutex
	jobs map[string][]byte
}

func (s *JobStore) handleGet(w http.ResponseWriter, id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w.Write(s.jobs[id])
}
`}},
			want: "while holding tdmd/internal/serve.JobStore.mu",
		},
		{
			// Engine.Close with the drain goroutine sending on an
			// unbuffered channel that the ctx.Done branch stops
			// receiving: a timed-out Close leaks the goroutine. No
			// test counts goroutines after a timed-out drain.
			analyzer: "goleak",
			pkgs: []srcPkg{{"context", fakeContext}, {"sync", fakeSync}, {"tdmd/internal/serve", `package serve

import (
	"context"
	"sync"
)

type Engine struct{ wg sync.WaitGroup }

func (e *Engine) Close(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		done <- struct{}{}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
`}},
			want: "unbuffered channel",
		},
		{
			// A link-load map on netsim.State read two calls below the
			// hot AddBox. Filling it from Instance.LinkLoads adds no
			// new escape-baseline key, and the read allocates nothing.
			analyzer: "mapstate",
			pkgs: []srcPkg{{"tdmd/internal/netsim", `package netsim

type LinkKey struct{ From, To int }

type State struct {
	boxLoad map[LinkKey]float64
	has     []bool
}

func (s *State) loadAt(v int) float64 { return s.boxLoad[LinkKey{v, v}] }

func (s *State) overloaded(v int) bool { return s.loadAt(v) > 1 }

//tdmd:hot
func (s *State) AddBox(v int) {
	if s.has[v] || s.overloaded(v) {
		return
	}
	s.has[v] = true
}
`}},
			want: "State.boxLoad",
		},
		{
			// The capacitated greedy's final bandwidth summed over a
			// per-box map: the last bits of Result.Bandwidth follow map
			// order. Test workloads use dyadic λ and integer rates, so
			// every order sums to the same bits there.
			analyzer: "detorder",
			pkgs: []srcPkg{{"tdmd/internal/placement", `package placement

type Result struct{ Bandwidth float64 }

func finishCapacitated(alloc []int, bw []float64) Result {
	perBox := make(map[int]float64)
	for i, v := range alloc {
		perBox[v] += bw[i]
	}
	var total float64
	for _, b := range perBox {
		total += b
	}
	return Result{Bandwidth: total}
}
`}},
			want: "reaches a returned tdmd/internal/placement.Result",
		},
		{
			// Local search checking feasibility with a full Allocate per
			// swap probe: the same plans at O(F) extra cost per probe.
			// The serve allocation gate runs gtp-lazy, not gtp-ls.
			analyzer: "allocloop",
			pkgs: []srcPkg{{"tdmd/internal/netsim", fakeNetsim}, {"tdmd/internal/placement", `package placement

import "tdmd/internal/netsim"

func refine(in *netsim.Instance, plans []netsim.Plan) int {
	best := -1
	for i, p := range plans {
		served := true
		alloc := in.Allocate(p)
		for _, at := range alloc {
			served = served && at >= 0
		}
		if served {
			best = i
		}
	}
	return best
}
`}},
			want: "full Allocate inside a loop",
		},
		{
			// A solver clamping rates through the shared instance on a
			// branch no test input reaches: a later solve of the same
			// instance sees the rewritten workload.
			analyzer: "solverpurity",
			pkgs: []srcPkg{{"context", fakeContext}, {"tdmd/internal/netsim", fakeNetsimModel}, {"tdmd/internal/placement", `package placement

import (
	"context"

	"tdmd/internal/netsim"
)

type Result struct{ Bandwidth float64 }

func clamp(in *netsim.Instance, capacity int) {
	for i, r := range in.Flows {
		if r > 4*capacity {
			in.Flows[i] = capacity
		}
	}
}

var capacitated = func(ctx context.Context, in *netsim.Instance, k int) (Result, error) {
	clamp(in, k)
	return Result{}, nil
}
`}},
			want: "reaches a write to its *netsim.Instance",
		},
		{
			// FlowStreamWriter.Close dropping the flush error: a full
			// disk truncates the stream and the writer reports success.
			// No test makes the underlying writer fail.
			analyzer: "droppederror",
			pkgs: []srcPkg{{"tdmd", `package tdmd

type flusher interface{ Flush() error }

type FlowStreamWriter struct{ bw flusher }

func (w *FlowStreamWriter) Close() error { _ = w.bw.Flush(); return nil }
`}},
			want: "blank identifier",
		},
		{
			// Local search recording every swap with a growing append
			// inside its hot loop. A slice growing through append adds
			// no escape-baseline key, and gtp-ls is not on the serve
			// allocation gate.
			analyzer: "hotalloc",
			pkgs: []srcPkg{{"tdmd/internal/placement", `package placement

func refine(verts []int) int {
	var swapped []int
	//tdmd:hot
	for _, v := range verts {
		if v%2 == 0 {
			swapped = append(swapped, v)
		}
	}
	return len(swapped)
}
`}},
			want: "append",
		},
		{
			// ResizeTree attaching leaves to parents drawn from the
			// global generator: the tree-size sweep of the figures stops
			// being reproducible from its seed. The sim, traffic,
			// Jellyfish and random-tree generators each have a
			// same-seed test that catches this; ResizeTree has none.
			analyzer: "globalrand",
			pkgs: []srcPkg{{"math/rand", fakeRand}, {"tdmd/internal/topology", `package topology

import "math/rand"

func resize(parents []int, n int, seed int64) []int {
	_ = rand.New(rand.NewSource(seed))
	for len(parents) < n {
		parents = append(parents, rand.Intn(len(parents)))
	}
	return parents
}
`}},
			want: "math/rand.Intn",
		},
		{
			// An example reaching into internal/paperfix instead of the
			// facade: it builds and runs, and no test reads imports.
			analyzer: "internalboundary",
			pkgs: []srcPkg{{"tdmd/internal/graph", fakeGraph}, {"tdmd/examples/quickstart", `package main

import "tdmd/internal/graph"

func main() { _ = graph.Invalid }
`}},
			want: "tdmd/internal/graph",
		},
		{
			// A stub panic on the crypto/rand failure path of job IDs,
			// a branch no test can reach.
			analyzer: "todotracker",
			pkgs: []srcPkg{{"tdmd/internal/serve", `package serve

func newJobID(ok bool) string {
	if !ok {
		panic("` + "TO" + `DO: fall back when crypto/rand fails")
	}
	return "id"
}
`}},
			want: "marks unfinished code",
		},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			a := analyzerByName(t, tc.analyzer)
			var got []Finding
			if a.RunModule != nil {
				got = runModuleOn(t, a, tc.pkgs...)
			} else {
				got = runOn(t, a, tc.pkgs...)
			}
			wantFindings(t, a, got, 1)
			if !strings.Contains(got[0].Message, tc.want) {
				t.Errorf("finding %q does not mention %q", got[0].Message, tc.want)
			}
		})
	}
}
