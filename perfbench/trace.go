package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tdmd"
	"tdmd/internal/serve"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the enclosing span, -1 for a request's root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var ivs [][2]int64
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), int64(math.MinInt64)
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
			}
			reach = max(reach, iv[1])
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerMeans is the mean self time per span name, in ms, over the
// requests traced, and the mean per request of the summed durations of
// the layer spans (the request roots' direct children).
func layerMeans(spans []span) (map[string]float64, float64) {
	self := selfTimes(spans)
	sum := map[string]time.Duration{}
	n := map[string]int{}
	reqs := map[int]bool{}
	var layers time.Duration
	for i, s := range spans {
		reqs[s.Req] = true
		sum[s.Name] += self[i]
		n[s.Name]++
		if s.Parent >= 0 && spans[s.Parent].Parent < 0 {
			layers += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]float64{}
	for name, d := range sum {
		out[name] = ms(d) / float64(n[name])
	}
	if len(reqs) == 0 {
		return out, 0
	}
	return out, ms(layers) / float64(len(reqs))
}

// replay sends one request through the layers' public calls in-process,
// one span per call, and returns the engine's outcome: the path the
// server's handler takes, minus HTTP, routing and response encoding.
func replay(ctx context.Context, t *tracer, eng *serve.Engine, r *request) (tdmd.Result, error) {
	root := t.begin("request", r.id, -1)
	defer t.end(root)
	var problem *tdmd.Problem
	if r.spec != nil {
		s := t.begin("tdmd.spec.decode", r.id, root)
		spec, err := tdmd.DecodeSpecStrict(bytes.NewReader(r.spec))
		t.end(s)
		if err != nil {
			return tdmd.Result{}, err
		}
		s = t.begin("tdmd.spec.build", r.id, root)
		problem, err = spec.Build()
		t.end(s)
		if err != nil {
			return tdmd.Result{}, err
		}
	} else {
		b := tdmd.NewProblemBuilder()
		s := t.begin("tdmd.stream.read", r.id, root)
		err := b.ReadStream(bytes.NewReader(r.body))
		t.end(s)
		if err != nil {
			return tdmd.Result{}, err
		}
		s = t.begin("tdmd.stream.build", r.id, root)
		problem, err = b.Build()
		t.end(s)
		if err != nil {
			return tdmd.Result{}, err
		}
	}
	sub := serve.Submission{Problem: problem, Algorithm: r.alg, K: r.k}
	s := t.begin("serve.fingerprint", r.id, root)
	serve.SubmissionFingerprint(sub)
	t.end(s)
	s = t.begin("serve.engine.submit", r.id, root)
	ticket, err := eng.Submit(sub)
	t.end(s)
	if err != nil {
		return tdmd.Result{}, err
	}
	defer ticket.Release()
	s = t.begin("serve.engine.wait", r.id, root)
	out, err := ticket.Wait(ctx)
	t.end(s)
	if err != nil {
		return tdmd.Result{}, err
	}
	if out.Err != nil {
		return tdmd.Result{}, out.Err
	}
	return out.Result, nil
}

// warm submits reqs to eng untraced, so the engine's cache holds what
// the server's does after its warm-up.
func warm(ctx context.Context, eng *serve.Engine, reqs []*request) error {
	for _, r := range reqs {
		if _, err := replay(ctx, newTracer(), eng, r); err != nil {
			return fmt.Errorf("warming engine with request %d: %v", r.id, err)
		}
	}
	return nil
}

// traceSample replays sample one request at a time on an in-process
// engine configured like tdmdserve's default flags (GOMAXPROCS workers,
// a 4×workers queue, 128 cache entries) and warmed with warmup, checks
// each result, writes the spans out, then sends the same sample once
// over HTTP with send and reports the ledger.
func traceSample(ctx context.Context, cfg config, rep *report, warmup, sample []*request,
	send func([]*request) ([]*op, error)) error {
	eng := serve.NewEngine(serve.EngineConfig{})
	defer eng.Close(ctx)
	if err := warm(ctx, eng, warmup); err != nil {
		return err
	}
	t := newTracer()
	for _, r := range sample {
		res, err := replay(ctx, t, eng, r)
		if err == nil {
			err = sameBandwidth(r, res.Bandwidth)
		}
		rep.attempted++
		if err != nil {
			rep.failed++
			note("FAILED traced request %d: %v", r.id, err)
		}
	}
	if err := t.write(filepath.Join(cfg.buildDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))); err != nil {
		return err
	}
	httpOps, err := send(sample)
	if err != nil {
		return err
	}
	rep.attempted += len(httpOps)
	rep.failed += tally(httpOps, http.StatusOK, checkSolve)
	ledger(rep, t, httpOps)
	return nil
}

// sameBandwidth checks a replayed result against the reference bits.
func sameBandwidth(r *request, bw float64) error {
	if math.Float64bits(bw) != math.Float64bits(r.want.bandwidth) {
		return fmt.Errorf("replayed bandwidth %v, reference %v", bw, r.want.bandwidth)
	}
	return nil
}
