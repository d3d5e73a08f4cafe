package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"tdmd"
	"tdmd/internal/experiments"
	"tdmd/internal/serve"
	"tdmd/internal/stats"
)

// request is one generated operation: the exact bytes the server
// receives plus what the output check needs to judge the answer.
type request struct {
	id   int
	body []byte // /api/solve JSON body, or a tdmd-flows/1 NDJSON job upload
	// spec is the spec document inside body (online workloads); the
	// traced replay decodes it with tdmd.DecodeSpecStrict.
	spec  []byte
	alg   tdmd.Algorithm
	k     int
	flows int
	want  reference
}

// reference is the in-process answer to a request, computed before any
// timing starts, on the same commit as the server.
type reference struct {
	bandwidth float64
	raw       float64
	nodes     int
	plan      []int
	evaluated float64 // Problem.Evaluate(plan).Bandwidth
	fp        serve.Fingerprint
}

func newReference(p *tdmd.Problem, sub serve.Submission, res tdmd.Result) reference {
	ref := reference{
		bandwidth: res.Bandwidth,
		raw:       p.Instance().RawDemand(),
		nodes:     p.Instance().G.NumNodes(),
		plan:      []int{},
		evaluated: p.Evaluate(res.Plan).Bandwidth,
		fp:        serve.SubmissionFingerprint(sub),
	}
	for _, v := range res.Plan.Vertices() {
		ref.plan = append(ref.plan, int(v))
	}
	return ref
}

// solveRef solves p in-process the way the server does and returns the
// reference answer; an error or an infeasible plan is an error, so the
// generator can redraw.
func solveRef(p *tdmd.Problem, alg tdmd.Algorithm, k int) (reference, error) {
	res, err := p.Solve(context.Background(), alg, k)
	if err != nil {
		return reference{}, err
	}
	if !res.Feasible || res.Interrupted != nil {
		return reference{}, fmt.Errorf("reference solve not feasible")
	}
	return newReference(p, serve.Submission{Problem: p, Algorithm: alg, K: k}, res), nil
}

// The online-cold sweeps: the points of the paper's Figs. 9-16, each
// varying one parameter around the evaluation defaults.
var (
	treeSizes    = []int{12, 16, 20, 24, 28, 32}                             // Fig. 12
	treeKs       = []int{1, 4, 7, 10, 13, 16}                                // Fig. 9
	generalSizes = []int{12, 20, 28, 36, 44, 52}                             // Fig. 16
	generalKs    = []int{12, 14, 16, 18, 20, 22}                             // Fig. 13
	densities    = []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8}                   // Figs. 11, 15
	lambdas      = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} // Figs. 10, 14
	treeAlgs     = []tdmd.Algorithm{tdmd.AlgDP, tdmd.AlgHAT, tdmd.AlgGTP}
	generalAlgs  = []tdmd.Algorithm{tdmd.AlgGTP, tdmd.AlgBestEffort, tdmd.AlgGTPLS}
)

// Sizes of the online-hot and bulk-ingest problems.
const (
	hotWorkingSet = 64
	hotNodes      = 200
	hotFlows      = 1500
	bulkNodes     = 2000
	bulkFlows     = 200_000
	// bulkTopology seeds the one topology every bulk job shares. About
	// one random 2000-vertex topology in four puts the hubs where a
	// dozen boxes serve every flow (ratio ≈ 0.85, a third of the solve
	// time) instead of the usual ~800 (ratio ≈ 0.55); drawing the
	// topology per job would make job cost and plan quality bimodal
	// from seed to seed.
	bulkTopology = 1
)

// Seed streams: every workload, and every phase of online-cold, derives
// its problems from the run seed through its own coordinate, so no two
// share a problem.
const (
	streamColdWarmup uint64 = iota + 1
	streamColdClosed
	streamColdOpen
	streamColdTraced
	streamHot
	streamBulk
	streamSchedule
	streamPick
)

type solveBody struct {
	Spec      json.RawMessage `json:"spec"`
	Algorithm tdmd.Algorithm  `json:"algorithm"`
	K         int             `json:"k"`
}

// onlineRequest encodes spec as an /api/solve body and answers it
// in-process the way the server will: strict decode, Build, Solve.
func onlineRequest(id int, spec tdmd.ProblemSpec, alg tdmd.Algorithm, k int) (request, error) {
	var sb bytes.Buffer
	if err := tdmd.EncodeSpecCompact(&sb, spec); err != nil {
		return request{}, err
	}
	specDoc := bytes.TrimSpace(sb.Bytes())
	body, err := json.Marshal(solveBody{Spec: specDoc, Algorithm: alg, K: k})
	if err != nil {
		return request{}, err
	}
	// Keep the spec document as a slice of the body, so the traced
	// replay decodes exactly the bytes sent.
	off := bytes.Index(body, specDoc)
	if off < 0 {
		return request{}, fmt.Errorf("spec document not found in body")
	}
	decoded, err := tdmd.DecodeSpecStrict(bytes.NewReader(specDoc))
	if err != nil {
		return request{}, err
	}
	problem, err := decoded.Build()
	if err != nil {
		return request{}, err
	}
	ref, err := solveRef(problem, alg, k)
	if err != nil {
		return request{}, err
	}
	return request{
		id:    id,
		body:  body,
		spec:  body[off : off+len(specDoc)],
		alg:   alg,
		k:     k,
		flows: len(spec.Flows),
		want:  ref,
	}, nil
}

// coldCell is one sweep point and algorithm of the online-cold design;
// the instance itself is drawn per request.
type coldCell struct {
	tree    bool
	alg     tdmd.Algorithm
	size, k int
	density float64
	lambda  float64
}

// allColdCells is every sweep point of Figs. 9-12 (tree) and 13-16
// (general) under each of the figure's algorithms: 28 points × 3
// algorithms per topology kind, 168 cells.
func allColdCells() []coldCell {
	var cells []coldCell
	sweep := func(tree bool, algs []tdmd.Algorithm, size, k int, sizes, ks []int) {
		var points []coldCell
		for _, x := range ks {
			points = append(points, coldCell{size: size, k: x, density: experiments.DefaultDensity, lambda: experiments.DefaultLambda})
		}
		for _, x := range lambdas {
			points = append(points, coldCell{size: size, k: k, density: experiments.DefaultDensity, lambda: x})
		}
		for _, x := range densities {
			points = append(points, coldCell{size: size, k: k, density: x, lambda: experiments.DefaultLambda})
		}
		for _, x := range sizes {
			points = append(points, coldCell{size: x, k: k, density: experiments.DefaultDensity, lambda: experiments.DefaultLambda})
		}
		for _, alg := range algs {
			for _, p := range points {
				p.tree, p.alg = tree, alg
				cells = append(cells, p)
			}
		}
	}
	sweep(true, treeAlgs, experiments.DefaultTreeSize, experiments.DefaultTreeK, treeSizes, treeKs)
	// Fig. 13 sweeps k at the general default size; Figs. 14-16 hold k
	// at its default.
	sweep(false, generalAlgs, experiments.DefaultGeneralSize, experiments.DefaultGeneralK, generalSizes, generalKs)
	return cells
}

// coldCells lays out n requests of one online-cold phase as successive
// rounds, each a seeded permutation of every cell. Any prefix therefore
// holds every cell equally often up to one partial round: the dp tail
// sets most of this workload's cost, and drawing cells independently
// would let its share, and with it every timing, swing from seed to
// seed.
func coldCells(seed int64, stream uint64, n int) []coldCell {
	cells := allColdCells()
	out := make([]coldCell, 0, n)
	for round := uint64(0); len(out) < n; round++ {
		rng := rand.New(rand.NewSource(stats.DeriveSeed(seed, stream, round)))
		for _, i := range rng.Perm(len(cells)) {
			out = append(out, cells[i])
		}
	}
	return out[:n]
}

// coldRequest draws request i of an online-cold phase in cell c: a tree
// or general trial at the cell's sweep point, redrawn with the next
// attempt seed (as the paper regenerates infeasible workloads) until
// the cell's algorithm answers it feasibly.
func coldRequest(seed int64, stream uint64, i int, c coldCell) (request, error) {
	id := int(stream)<<24 | i
	for attempt := uint64(0); attempt < 64; attempt++ {
		s := stats.DeriveSeed(seed, stream, uint64(i), attempt)
		var spec tdmd.ProblemSpec
		if c.tree {
			tr := experiments.TreeTrial(c.size, c.density, c.lambda, c.k, s)
			spec = tdmd.SpecFromProblem(tr.Inst.G, tr.Inst.Flows(), c.lambda)
			spec.Root = int(tr.Tree.Root)
		} else {
			tr := experiments.GeneralTrial(c.size, c.density, c.lambda, c.k, s)
			spec = tdmd.SpecFromProblem(tr.Inst.G, tr.Inst.Flows(), c.lambda)
		}
		if req, err := onlineRequest(id, spec, c.alg, c.k); err == nil {
			return req, nil
		}
	}
	return request{}, fmt.Errorf("online-cold request %d: no feasible draw in cell %+v", id, c)
}

// coldPhase generates the n requests of one online-cold phase. Requests
// whose submission fingerprint repeats one in seen are dropped, so
// every cold request is a true cache miss.
func coldPhase(seed int64, stream uint64, n int, seen map[serve.Fingerprint]bool) ([]*request, error) {
	cells := coldCells(seed, stream, n)
	reqs, err := generate(n, func(i int) (request, error) { return coldRequest(seed, stream, i, cells[i]) })
	if err != nil {
		return nil, err
	}
	out := reqs[:0]
	for _, r := range reqs {
		if !seen[r.want.fp] {
			seen[r.want.fp] = true
			out = append(out, r)
		}
	}
	return out, nil
}

// hotRequest builds working-set problem id of the online-hot stream:
// |V| = 200 random general topology, 1500 shortest-path flows to three
// hubs, λ at the evaluation default, solved by gtp-lazy.
func hotRequest(seed int64, id int) (request, error) {
	s := stats.DeriveSeed(seed, streamHot, uint64(id))
	g := tdmd.GeneralRandom(hotNodes, 0.5, s)
	flows := tdmd.GeneralFlows(g, []tdmd.NodeID{0, 1, 2}, tdmd.GenConfig{Density: 1e12, Seed: s + 1, MaxFlows: hotFlows})
	return onlineRequest(id, tdmd.SpecFromProblem(g, flows, experiments.DefaultLambda), tdmd.AlgGTPLazy, 0)
}

// bulkRequest builds job id of the bulk-ingest stream: a tdmd-flows/1
// NDJSON upload of 200k flows with their own seed on the shared
// 2000-vertex general topology, solved by gtp-lazy. Flows run from
// random sources to one of three hubs along BFS shortest paths; the
// paths come from one reverse BFS tree per hub, because a BFS per flow
// (the library generator) would cost seconds per job.
func bulkRequest(seed int64, id int) (request, error) {
	rng := rand.New(rand.NewSource(stats.DeriveSeed(seed, streamBulk, uint64(id))))
	g := tdmd.GeneralRandom(bulkNodes, 0.5, bulkTopology)
	h := tdmd.StreamHeader{Lambda: 0.5, Root: -1}
	for _, v := range g.Nodes() {
		h.Nodes = append(h.Nodes, g.Name(v))
	}
	for _, e := range g.Edges() {
		h.Edges = append(h.Edges, [2]int{int(e.From), int(e.To)})
	}
	var buf bytes.Buffer
	w, err := tdmd.NewFlowStreamWriter(&buf, h)
	if err != nil {
		return request{}, err
	}
	hubs := []tdmd.NodeID{0, 1, 2}
	next := make([][]tdmd.NodeID, len(hubs))
	for i, hub := range hubs {
		next[i] = towards(g, hub)
	}
	dist := tdmd.DefaultCAIDALike()
	var path tdmd.Path
	for n := 0; n < bulkFlows; {
		src := tdmd.NodeID(len(hubs) + rng.Intn(bulkNodes-len(hubs)))
		hi := rng.Intn(len(hubs))
		if next[hi][src] < 0 {
			continue
		}
		path = append(path[:0], src)
		for v := src; v != hubs[hi]; {
			v = next[hi][v]
			path = append(path, v)
		}
		if err := w.Add(dist.Sample(rng), path); err != nil {
			return request{}, err
		}
		n++
	}
	if err := w.Close(); err != nil {
		return request{}, err
	}
	problem, err := tdmd.DecodeStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return request{}, err
	}
	ref, err := solveRef(problem, tdmd.AlgGTPLazy, 0)
	if err != nil {
		return request{}, err
	}
	return request{id: id, body: buf.Bytes(), alg: tdmd.AlgGTPLazy, flows: bulkFlows, want: ref}, nil
}

// towards returns, for every vertex, its next hop on a BFS shortest
// path to hub (-1 when hub is unreachable; the hub maps to itself).
func towards(g *tdmd.Graph, hub tdmd.NodeID) []tdmd.NodeID {
	next := make([]tdmd.NodeID, g.NumNodes())
	for i := range next {
		next[i] = -1
	}
	next[hub] = hub
	queue := []tdmd.NodeID{hub}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.In(v) {
			if next[e.From] < 0 {
				next[e.From] = v
				queue = append(queue, e.From)
			}
		}
	}
	return next
}

// generate builds requests 0..n-1 with gen on every CPU. The result is
// ordered by index, so it depends only on gen's inputs.
func generate(n int, gen func(i int) (request, error)) ([]*request, error) {
	out := make([]*request, n)
	errs := make([]error, n)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				r, err := gen(i)
				out[i], errs[i] = &r, err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
