package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdmd"
	"tdmd/internal/netsim"
	"tdmd/internal/placement"
)

// blockCtl steers the blocking test solver: every Solve signals
// started, then parks until release closes (or its context dies).
// Each test installs a fresh control so -count=N reruns stay
// independent.
type blockCtl struct {
	started chan struct{}
	release chan struct{}
}

var blockCur atomic.Pointer[blockCtl]

func newBlockCtl(t *testing.T) *blockCtl {
	t.Helper()
	c := &blockCtl{started: make(chan struct{}, 64), release: make(chan struct{})}
	blockCur.Store(c)
	t.Cleanup(c.releaseAll)
	return c
}

// releaseAll unblocks every parked solve; idempotent.
func (c *blockCtl) releaseAll() {
	select {
	case <-c.release:
	default:
		close(c.release)
	}
}

// waitStarted blocks until one solve has entered the solver body.
func (c *blockCtl) waitStarted(t *testing.T) {
	t.Helper()
	select {
	case <-c.started:
	case <-time.After(10 * time.Second):
		t.Fatal("solver never started")
	}
}

// blockSolver is a registry solver that emits one incumbent and then
// parks, making queue states and in-flight solves deterministic in
// tests. Consumes no options, so submissions use k = 0.
type blockSolver struct{}

func (blockSolver) Traits() placement.Traits {
	return placement.Traits{
		Name:    "serve-test-block",
		Doc:     "test-only solver that parks until released",
		Anytime: true,
	}
}

func (blockSolver) Solve(ctx context.Context, _ *netsim.Instance, _ placement.Options) (placement.Result, error) {
	c := blockCur.Load()
	if c == nil {
		return placement.Result{Plan: netsim.NewPlan(0), Bandwidth: 42, Feasible: true}, nil
	}
	placement.EmitIncumbent(ctx, netsim.NewPlan(0), 42)
	select {
	case c.started <- struct{}{}:
	default:
	}
	select {
	case <-c.release:
		return placement.Result{Plan: netsim.NewPlan(0), Bandwidth: 42, Feasible: true}, nil
	case <-ctx.Done():
		return placement.Result{}, ctx.Err()
	}
}

func init() { placement.Register(blockSolver{}) }

// lineSpec is a tiny rooted line topology; rate varies the fingerprint.
func lineSpec(rate int) tdmd.ProblemSpec {
	return tdmd.ProblemSpec{
		Nodes:  []string{"a", "b", "c"},
		Edges:  [][2]int{{1, 0}, {2, 1}},
		Flows:  []tdmd.FlowSpec{{Rate: rate, Path: []int{2, 1, 0}}},
		Lambda: 0.5,
		Root:   0,
	}
}

func blockReq(rate int) solveRequest {
	return solveRequest{Spec: lineSpec(rate), Algorithm: "serve-test-block", K: 0}
}

// asyncPost fires a POST in a goroutine and returns a channel with
// the response (nil on transport error).
func asyncPost(t *testing.T, srv *httptest.Server, path string, body interface{}) <-chan *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			ch <- nil
			return
		}
		ch <- resp
	}()
	return ch
}

// TestServeSaturation429RetryAfter: with one worker parked and the
// one-slot queue occupied, the next submission is rejected with 429
// and a Retry-After hint instead of queueing unboundedly; a job that
// finds the job store full of unfinished jobs gets the same answer.
// The 300 ms backoff rounds up to "1": "0" would mean retry at once.
func TestServeSaturation429RetryAfter(t *testing.T) {
	_, srv := testServer(t, Config{EngineConfig: EngineConfig{Workers: 1, Queue: 1}, MaxJobs: 1, RetryAfter: 300 * time.Millisecond})
	// Created second, so its cleanup releases the parked solves before
	// srv.Close waits on them, and a failed check cannot hang the test.
	ctl := newBlockCtl(t)

	first := asyncPost(t, srv, "/api/solve", blockReq(1))
	ctl.waitStarted(t) // worker is parked; queue is empty

	second := asyncPost(t, srv, "/api/solve", blockReq(2))
	waitForGauge(t, queueDepth, 1) // distinct fingerprint now queued

	resp := post(t, srv, "/api/solve", blockReq(3))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error, "retry") {
		t.Fatalf("429 envelope %q does not mention retrying", env.Error)
	}

	// Jobs for the two in-flight problems coalesce past the full queue;
	// the first fills the one-job store, so the second is refused.
	job := post(t, srv, "/v1/jobs", blockReq(1))
	job.Body.Close()
	if job.StatusCode != http.StatusAccepted {
		t.Fatalf("job status = %d, want 202", job.StatusCode)
	}
	full := post(t, srv, "/v1/jobs", blockReq(2))
	defer full.Body.Close()
	if full.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job-store-full status = %d, want 429", full.StatusCode)
	}
	if got := full.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("job-store-full Retry-After = %q, want \"1\"", got)
	}

	ctl.releaseAll()
	for _, ch := range []<-chan *http.Response{first, second} {
		r := <-ch
		if r == nil {
			t.Fatal("parked request died on transport")
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("released request status = %d, want 200", r.StatusCode)
		}
	}
}

// waitForGauge polls an obs gauge until it reaches want.
func waitForGauge(t *testing.T, g interface{ Value() int64 }, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("gauge stuck at %d, want %d", g.Value(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeCoalescingSharesResult: an identical submission arriving
// while its twin is in flight attaches to the same solve, and both
// responses are identical except for elapsed time.
func TestServeCoalescingSharesResult(t *testing.T) {
	ctl := newBlockCtl(t)
	_, srv := testServer(t, Config{EngineConfig: EngineConfig{Workers: 1, Queue: 4}})

	first := asyncPost(t, srv, "/api/solve", blockReq(7))
	ctl.waitStarted(t)

	before := countSeries(t, "tdmd_serve_coalesced_total")
	second := asyncPost(t, srv, "/api/solve", blockReq(7))
	deadline := time.Now().Add(10 * time.Second)
	for countSeries(t, "tdmd_serve_coalesced_total") != before+1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctl.releaseAll()
	strip := func(resp *http.Response, wantSource Source) map[string]json.RawMessage {
		t.Helper()
		if resp == nil {
			t.Fatal("request died on transport")
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Tdmd-Solve"); got != string(wantSource) {
			t.Fatalf("X-Tdmd-Solve = %q, want %q", got, wantSource)
		}
		var raw map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		delete(raw, "elapsed_ms")
		return raw
	}
	a := strip(<-first, SourceFresh)
	b := strip(<-second, SourceCoalesced)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("coalesced result differs:\nfresh:     %v\ncoalesced: %v", a, b)
	}
}

// watchdog bounds the test's run, its cleanups included: if it is
// still running after d, the test binary panics with every goroutine's
// stack, instead of blocking until go test's own timeout. A handler
// parked on a solve nobody cancels keeps httptest.Server.Close waiting
// forever, so the wait must not depend on the test's own checks.
func watchdog(t *testing.T, d time.Duration) {
	timer := time.AfterFunc(d, func() {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		panic(fmt.Sprintf("%s still running after %v; goroutines:\n%s", t.Name(), d, buf))
	})
	t.Cleanup(func() { timer.Stop() }) // registered first, so it runs last
}

// TestServeClientGone499: a synchronous client hanging up mid-solve is
// recorded on the client-gone series — and NOT as a server error —
// and cancels the abandoned solve.
func TestServeClientGone499(t *testing.T) {
	watchdog(t, 20*time.Second)
	ctl := newBlockCtl(t)
	_, srv := testServer(t, Config{EngineConfig: EngineConfig{Workers: 1, Queue: 2}})

	goneBefore := countSeries(t, "tdmd_http_client_gone_total")
	errsBefore := countSeries(t, `tdmd_http_request_errors_total{route="/api/solve"}`)

	ctx, cancel := context.WithCancel(context.Background())
	body, err := json.Marshal(blockReq(11))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/api/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, derr := http.DefaultClient.Do(req)
		if derr == nil {
			resp.Body.Close()
		}
		done <- derr
	}()
	ctl.waitStarted(t)
	cancel() // client hangs up while the solve is parked
	if derr := <-done; derr == nil {
		t.Fatal("canceled request unexpectedly completed")
	}

	deadline := time.Now().Add(10 * time.Second)
	for countSeries(t, "tdmd_http_client_gone_total") != goneBefore+1 {
		if time.Now().After(deadline) {
			t.Fatalf("client-gone counter never moved (%d)", countSeries(t, "tdmd_http_client_gone_total"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := countSeries(t, `tdmd_http_request_errors_total{route="/api/solve"}`); got != errsBefore {
		t.Fatalf("client disconnect counted as a server error (%d -> %d)", errsBefore, got)
	}
	// The abandoned flight was canceled: its worker frees up and a new
	// solve (released immediately) completes.
	ctl.releaseAll()
	resp := post(t, srv, "/api/solve", blockReq(12))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect solve status = %d, want 200", resp.StatusCode)
	}
}

// TestServeJobsLifecycle: a blocking async job is created (202 +
// Location), reports running with the solver's best-so-far incumbent,
// and settles into done with the full result once the solve returns.
func TestServeJobsLifecycle(t *testing.T) {
	ctl := newBlockCtl(t)
	_, srv := testServer(t, Config{EngineConfig: EngineConfig{Workers: 1, Queue: 2}})

	resp := post(t, srv, "/v1/jobs", blockReq(21))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create status = %d, want 202", resp.StatusCode)
	}
	var created jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" {
		t.Fatal("job response has no id")
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+created.ID {
		t.Fatalf("Location = %q", loc)
	}

	get := func() jobResponse {
		t.Helper()
		r, err := http.Get(srv.URL + "/v1/jobs/" + created.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("job get status = %d", r.StatusCode)
		}
		var jr jobResponse
		if err := json.NewDecoder(r.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		return jr
	}

	ctl.waitStarted(t)
	deadline := time.Now().Add(10 * time.Second)
	var running jobResponse
	for {
		running = get()
		if running.State == JobRunning && running.Incumbent != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reported running with an incumbent: %+v", running)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if running.Incumbent.Bandwidth != 42 || running.Incumbent.Solver != "serve-test-block" {
		t.Fatalf("incumbent: %+v", running.Incumbent)
	}
	if running.Result != nil {
		t.Fatalf("running job already has a result: %+v", running)
	}

	ctl.releaseAll()
	for {
		jr := get()
		if jr.State == JobDone {
			if jr.Result == nil || jr.Result.Bandwidth != 42 || !jr.Result.Feasible {
				t.Fatalf("done job result: %+v", jr.Result)
			}
			if jr.Source != SourceFresh {
				t.Fatalf("done job source = %q, want fresh", jr.Source)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", jr)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Unknown job id -> 404.
	nf, err := http.Get(srv.URL + "/v1/jobs/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", nf.StatusCode)
	}
}

// TestServeJobCancel: DELETE cancels a running job; the parked solve
// is released by cancellation (last waiter) and the worker frees up.
func TestServeJobCancel(t *testing.T) {
	ctl := newBlockCtl(t)
	_, srv := testServer(t, Config{EngineConfig: EngineConfig{Workers: 1, Queue: 2}})

	resp := post(t, srv, "/v1/jobs", blockReq(31))
	var created jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctl.waitStarted(t)

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer del.Body.Close()
	var after jobResponse
	if err := json.NewDecoder(del.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if after.State != JobCanceled {
		t.Fatalf("state after DELETE = %q, want canceled", after.State)
	}

	// Cancellation released the parked solve: the worker goes idle
	// without anyone touching the release channel.
	waitForGauge(t, poolBusy, 0)
	ctl.releaseAll()
	next := post(t, srv, "/api/solve", blockReq(32))
	next.Body.Close()
	if next.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel solve status = %d, want 200", next.StatusCode)
	}
}

// TestServeJobStreamNDJSON: a tdmd-flows/1 NDJSON body creates a job
// through the streaming decoder, with algorithm/k taken from query
// parameters — the path that bypasses the JSON body cap.
func TestServeJobStreamNDJSON(t *testing.T) {
	_, srv := testServer(t, Config{EngineConfig: EngineConfig{Workers: 2, Queue: 4}})

	var buf bytes.Buffer
	w, err := tdmd.NewFlowStreamWriter(&buf, tdmd.StreamHeader{
		Nodes:  []string{"a", "b", "c"},
		Edges:  [][2]int{{1, 0}, {2, 1}},
		Lambda: 0.5,
		Root:   0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(5, tdmd.Path{2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/v1/jobs?algorithm=gtp&k=1", "application/x-ndjson", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stream job status = %d, want 202", resp.StatusCode)
	}
	var created jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.Algorithm != "gtp" || created.K != 1 {
		t.Fatalf("stream job parameters: %+v", created)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + created.ID)
		if err != nil {
			t.Fatal(err)
		}
		var jr jobResponse
		if err := json.NewDecoder(r.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if jr.State == JobDone {
			if jr.Result == nil || !jr.Result.Feasible {
				t.Fatalf("stream job result: %+v", jr.Result)
			}
			break
		}
		if jr.State == JobFailed {
			t.Fatalf("stream job failed: %+v", jr)
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream job never finished: %+v", jr)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A malformed k query parameter is a 400 before any solve.
	bad, err := http.Post(srv.URL+"/v1/jobs?algorithm=gtp&k=lots", "application/x-ndjson", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k status = %d, want 400", bad.StatusCode)
	}

	// An unregistered algorithm is a 400 naming it, before the body is
	// decoded or a pool solve is spent.
	solves := solvesTotal.Value()
	unknown, err := http.Post(srv.URL+"/v1/jobs?algorithm=gtp-paralel", "application/x-ndjson", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	if err := json.NewDecoder(unknown.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	unknown.Body.Close()
	if unknown.StatusCode != http.StatusBadRequest || !strings.Contains(env.Error, "gtp-paralel") {
		t.Fatalf("unknown algorithm: status = %d, error %q", unknown.StatusCode, env.Error)
	}
	if got := solvesTotal.Value(); got != solves {
		t.Fatalf("unknown algorithm reached the pool: solves %d -> %d", solves, got)
	}
}

// postNDJSON sends body as an NDJSON job through the server's mux and
// returns the status and the error envelope's message.
func postNDJSON(t *testing.T, s *Server, query string, body []byte) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs?"+query, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, req)
	var env errorEnvelope
	if rec.Code != http.StatusAccepted {
		if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
			t.Fatalf("status %d body is not the JSON envelope: %v", rec.Code, err)
		}
	}
	return rec.Code, env.Error
}

// TestServeJobStreamBadQueryBeforeDecode: a malformed k or seed is a
// 400 naming the parameter, decided before the body is read — even a
// body that is not JSON at all, and without ingesting a valid one.
func TestServeJobStreamBadQueryBeforeDecode(t *testing.T) {
	s, _ := testServer(t, Config{EngineConfig: EngineConfig{Workers: 1, Queue: 1}})
	var valid bytes.Buffer
	w, err := tdmd.NewFlowStreamWriter(&valid, tdmd.StreamHeader{
		Nodes: []string{"a", "b"}, Edges: [][2]int{{0, 1}}, Lambda: 0.5, Root: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(1, tdmd.Path{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ query, want string }{
		{"algorithm=gtp&k=lots", "query parameter k"},
		{"algorithm=gtp&k=2&seed=x", "query parameter seed"},
	} {
		for _, body := range [][]byte{[]byte("not json"), valid.Bytes()} {
			before := countSeries(t, "tdmd_ingest_flows_total")
			code, msg := postNDJSON(t, s, tc.query, body)
			if code != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
				t.Errorf("%s with body %.8q: status %d, error %q; want 400 naming %q", tc.query, body, code, msg, tc.want)
			}
			if after := countSeries(t, "tdmd_ingest_flows_total"); after != before {
				t.Errorf("%s with body %.8q: ingested flows %d -> %d before rejecting", tc.query, body, before, after)
			}
		}
	}
}

// TestServeJobStreamTooLarge413: a stream whose flow tail crosses
// MaxStreamBytes is a 413 envelope naming the limit, not a decode 400.
func TestServeJobStreamTooLarge413(t *testing.T) {
	const limit = 1 << 17
	s, _ := testServer(t, Config{EngineConfig: EngineConfig{Workers: 1, Queue: 1}, MaxStreamBytes: limit})
	var buf bytes.Buffer
	w, err := tdmd.NewFlowStreamWriter(&buf, tdmd.StreamHeader{
		Nodes: []string{"a", "b", "c"}, Edges: [][2]int{{0, 1}, {1, 2}}, Lambda: 0.5, Root: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := w.Add(1+i%7, tdmd.Path{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if header := bytes.IndexByte(buf.Bytes(), '\n'); header >= limit || buf.Len() <= limit {
		t.Fatalf("fixture must cross the cap inside the flow tail: header %d bytes, stream %d", header, buf.Len())
	}
	code, msg := postNDJSON(t, s, "algorithm=gtp&k=1", buf.Bytes())
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, fmt.Sprint(limit)) {
		t.Fatalf("oversize stream: status %d, error %q; want 413 naming %d", code, msg, limit)
	}
}

// unreadBody is a request body that fails the test if it is read.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the body was read")
	return 0, io.EOF
}

// TestServeDeclaredTooLarge413BeforeRead: a Content-Length over the
// cap is a 413 with the cap's usual text before any byte of the body
// is read, on every route that reads a JSON body or a flow stream.
func TestServeDeclaredTooLarge413BeforeRead(t *testing.T) {
	const streamLimit = 1 << 17
	s, _ := testServer(t, Config{EngineConfig: EngineConfig{Workers: 1, Queue: 1}, MaxStreamBytes: streamLimit})
	cases := []struct {
		path, contentType string
		length            int64
		want              string
	}{
		{"/api/solve", "application/json", maxRequestBytes + 1, fmt.Sprintf("request body exceeds %d bytes", maxRequestBytes)},
		{"/api/evaluate", "application/json", maxRequestBytes + 1, fmt.Sprintf("request body exceeds %d bytes", maxRequestBytes)},
		{"/v1/jobs", "application/json", maxRequestBytes + 1, fmt.Sprintf("request body exceeds %d bytes", maxRequestBytes)},
		{"/v1/jobs?algorithm=gtp&k=1", "application/x-ndjson", streamLimit + 1, fmt.Sprintf("stream body exceeds %d bytes", streamLimit)},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, tc.path, unreadBody{t})
		req.ContentLength = tc.length
		req.Header.Set("Content-Type", tc.contentType)
		rec := httptest.NewRecorder()
		s.Mux().ServeHTTP(rec, req)
		var env errorEnvelope
		if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
			t.Fatalf("%s: status %d body is not the JSON envelope: %v", tc.path, rec.Code, err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || env.Error != tc.want {
			t.Fatalf("%s with Content-Length %d: status %d, error %q; want 413, %q", tc.path, tc.length, rec.Code, env.Error, tc.want)
		}
	}
}

// TestServeJobStreamSizedFingerprint: a flow stream sent with its
// Content-Length, whose flow arenas are sized from it, and the same
// stream sent chunked, which grows them by doubling, become the same
// submission, fingerprint for fingerprint.
func TestServeJobStreamSizedFingerprint(t *testing.T) {
	s, _ := testServer(t, Config{EngineConfig: EngineConfig{Workers: 1, Queue: 1}})
	g := tdmd.GeneralRandom(60, 0.5, 3)
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
		t.Fatal(err)
	}
	if _, err := tdmd.GenerateGeneralFlows(g, []tdmd.NodeID{0, 1}, tdmd.GenConfig{Density: 1e12, Seed: 3, MaxFlows: 5000},
		func(f tdmd.Flow) error { return w.Add(f.Rate, f.Path) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	submit := func(length int64) Fingerprint {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs?algorithm=gtp&k=2", struct{ io.Reader }{bytes.NewReader(buf.Bytes())})
		req.ContentLength = length
		req.Header.Set("Content-Type", "application/x-ndjson")
		sub, _, err := s.streamSubmission(httptest.NewRecorder(), req)
		if err != nil {
			t.Fatal(err)
		}
		if n := sub.Problem.Instance().NumFlows(); n != 5000 {
			t.Fatalf("Content-Length %d: %d flows, want 5000", length, n)
		}
		return SubmissionFingerprint(sub)
	}
	if sized, chunked := submit(int64(buf.Len())), submit(-1); sized != chunked {
		t.Fatalf("fingerprint %x with Content-Length, %x chunked", sized, chunked)
	}
}

// TestServeDrainWithInflightJobs: Close stops admission immediately
// (new solves 503) but in-flight jobs run to completion and keep
// their results pollable.
func TestServeDrainWithInflightJobs(t *testing.T) {
	ctl := newBlockCtl(t)
	s, srv := testServer(t, Config{EngineConfig: EngineConfig{Workers: 1, Queue: 2}})

	resp := post(t, srv, "/v1/jobs", blockReq(41))
	var created jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctl.waitStarted(t)

	s.Drain()
	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()

	// Admission shuts off as soon as Close marks the engine closed. A
	// probe sent before that would be admitted and queue behind the
	// parked job, so wait for the mark first.
	deadline := time.Now().Add(10 * time.Second)
	for !engineClosed(s.eng) {
		if time.Now().After(deadline) {
			t.Fatal("Close never marked the engine closed")
		}
		time.Sleep(time.Millisecond)
	}
	r := post(t, srv, "/api/solve", blockReq(42))
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining engine admitted a solve (status %d)", r.StatusCode)
	}

	ctl.releaseAll()
	if err := <-closed; err != nil {
		t.Fatalf("drain: %v", err)
	}

	r, err := http.Get(srv.URL + "/v1/jobs/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var jr jobResponse
	if err := json.NewDecoder(r.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.State != JobDone || jr.Result == nil {
		t.Fatalf("in-flight job after drain: %+v", jr)
	}
}

// engineClosed reports whether Close has marked e closed.
func engineClosed(e *Engine) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// TestServeFingerprint: equal submissions hash equal; every
// solve-visible knob moves the fingerprint.
func TestServeFingerprint(t *testing.T) {
	build := func(spec tdmd.ProblemSpec, alg tdmd.Algorithm, k int, seed *int64) Submission {
		t.Helper()
		p, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		return Submission{Problem: p, Algorithm: alg, K: k, Seed: seed}
	}
	base := func() Submission { return build(lineSpec(3), "gtp", 1, nil) }
	if SubmissionFingerprint(base()) != SubmissionFingerprint(base()) {
		t.Fatal("identical submissions fingerprint differently")
	}
	seed := int64(9)
	variants := map[string]Submission{
		"algorithm": build(lineSpec(3), "gtp-ls", 1, nil),
		"k":         build(lineSpec(3), "gtp", 2, nil),
		"rate":      build(lineSpec(4), "gtp", 1, nil),
		"seed":      build(lineSpec(3), "gtp", 1, &seed),
		"lambda": build(tdmd.ProblemSpec{
			Nodes:  []string{"a", "b", "c"},
			Edges:  [][2]int{{1, 0}, {2, 1}},
			Flows:  []tdmd.FlowSpec{{Rate: 3, Path: []int{2, 1, 0}}},
			Lambda: 0.25,
			Root:   0,
		}, "gtp", 1, nil),
	}
	ref := SubmissionFingerprint(base())
	for name, sub := range variants {
		if SubmissionFingerprint(sub) == ref {
			t.Errorf("variant %q fingerprints equal to base", name)
		}
	}

	// Paths are hashed once per class, then (rate, class) per flow: the
	// digest must still tell apart every reshuffle of paths and flows.
	// K4 makes every simple path valid; the base repeats path p.
	k4 := tdmd.ProblemSpec{Nodes: []string{"a", "b", "c", "d"}, Lambda: 0.5, Root: -1}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v {
				k4.Edges = append(k4.Edges, [2]int{u, v})
			}
		}
	}
	multi := func(flows ...tdmd.FlowSpec) Submission {
		spec := k4
		spec.Flows = flows
		return build(spec, "gtp", 1, nil)
	}
	p, q := []int{0, 1, 2}, []int{1, 2, 3}
	multiRef := SubmissionFingerprint(multi(
		tdmd.FlowSpec{Rate: 3, Path: p}, tdmd.FlowSpec{Rate: 5, Path: q}, tdmd.FlowSpec{Rate: 3, Path: p}))
	for name, sub := range map[string]Submission{
		"paths of flows 0 and 1 swapped": multi(
			tdmd.FlowSpec{Rate: 3, Path: q}, tdmd.FlowSpec{Rate: 5, Path: p}, tdmd.FlowSpec{Rate: 3, Path: p}),
		// Same class paths in the same order and same rates: only the
		// per-flow class ids tell these apart.
		"paths of flows 1 and 2 swapped": multi(
			tdmd.FlowSpec{Rate: 3, Path: p}, tdmd.FlowSpec{Rate: 5, Path: p}, tdmd.FlowSpec{Rate: 3, Path: q}),
		"flows swapped": multi(
			tdmd.FlowSpec{Rate: 5, Path: q}, tdmd.FlowSpec{Rate: 3, Path: p}, tdmd.FlowSpec{Rate: 3, Path: p}),
		"hop changed in every copy of the repeated path": multi(
			tdmd.FlowSpec{Rate: 3, Path: []int{0, 3, 2}}, tdmd.FlowSpec{Rate: 5, Path: q}, tdmd.FlowSpec{Rate: 3, Path: []int{0, 3, 2}}),
		"hop changed in one copy of the repeated path": multi(
			tdmd.FlowSpec{Rate: 3, Path: p}, tdmd.FlowSpec{Rate: 5, Path: q}, tdmd.FlowSpec{Rate: 3, Path: []int{0, 3, 2}}),
		"repeat replaced by a path with the same hops": multi(
			tdmd.FlowSpec{Rate: 3, Path: p}, tdmd.FlowSpec{Rate: 5, Path: q}, tdmd.FlowSpec{Rate: 3, Path: []int{2, 1, 0}}),
	} {
		if SubmissionFingerprint(sub) == multiRef {
			t.Errorf("variant %q fingerprints equal to its base", name)
		}
	}

	// The same NDJSON bytes decode to the same digest, and to the one
	// the equivalent spec document gives.
	var buf bytes.Buffer
	w, err := tdmd.NewFlowStreamWriter(&buf, tdmd.StreamHeader{Nodes: k4.Nodes, Edges: k4.Edges, Lambda: k4.Lambda, Root: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range [][]int{p, q, p} {
		if err := w.Add(3, tdmd.Path{tdmd.NodeID(path[0]), tdmd.NodeID(path[1]), tdmd.NodeID(path[2])}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	decode := func() Fingerprint {
		t.Helper()
		prob, err := tdmd.DecodeStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return SubmissionFingerprint(Submission{Problem: prob, Algorithm: "gtp", K: 1})
	}
	fromSpec := SubmissionFingerprint(multi(
		tdmd.FlowSpec{Rate: 3, Path: p}, tdmd.FlowSpec{Rate: 3, Path: q}, tdmd.FlowSpec{Rate: 3, Path: p}))
	if first, second := decode(), decode(); first != second || first != fromSpec {
		t.Error("decoding the same NDJSON twice, or its spec form, gives different digests")
	}
}

// TestServeFingerprintGolden pins the fingerprint's byte layout: the
// digest of a fixed submission (a 15-vertex tree with a root, a seed,
// and 300 flows over 14 repeated paths, enough to refill the hasher's
// buffer several times) was recorded from the per-value encoder. A
// layout change must bump fpVersion and re-record this digest.
func TestServeFingerprintGolden(t *testing.T) {
	spec := tdmd.ProblemSpec{Lambda: 0.25, Root: 0}
	for v := 0; v < 15; v++ {
		spec.Nodes = append(spec.Nodes, fmt.Sprint("v", v))
		if v > 0 {
			spec.Edges = append(spec.Edges, [2]int{v, (v - 1) / 2})
		}
	}
	for i := 0; i < 300; i++ {
		path := []int{1 + i*5%14}
		for v := path[0]; v > 0; {
			v = (v - 1) / 2
			path = append(path, v)
		}
		spec.Flows = append(spec.Flows, tdmd.FlowSpec{Rate: 1 + i*13%17, Path: path})
	}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(42)
	fp := SubmissionFingerprint(Submission{Problem: p, Algorithm: "gtp-lazy", K: 3, Seed: &seed})
	const want = "1de4c18df63944df41f8b48c0aea7aa6e737bcf120feeaf51a66c0c37adf03fa"
	if got := fmt.Sprintf("%x", fp[:]); got != want {
		t.Errorf("fingerprint %s, want %s (%s layout)", got, want, fpVersion)
	}
}

// TestServeIncumbentRecorderMonotone: multistart solvers may emit a
// later, worse incumbent; the recorder must keep the best.
func TestServeIncumbentRecorderMonotone(t *testing.T) {
	rec := &incumbentRecorder{fl: &flight{}, next: placement.Metrics()}
	rec.Incumbent("x", netsim.NewPlan(1), 50)
	rec.Incumbent("x", netsim.NewPlan(2), 60) // worse: ignored
	if inc := rec.fl.incumbent.Load(); inc == nil || inc.Bandwidth != 50 {
		t.Fatalf("incumbent after worse emission: %+v", inc)
	}
	rec.Incumbent("x", netsim.NewPlan(3), 40) // better: replaces
	inc := rec.fl.incumbent.Load()
	if inc == nil || inc.Bandwidth != 40 || len(inc.Plan) != 1 || inc.Plan[0] != 3 {
		t.Fatalf("incumbent after better emission: %+v", inc)
	}
}

// TestServeEngineLifecycle: admission and drain through Engine.Submit
// and Close with parked solves — a full queue is ErrSaturated, a
// flight still queued when Close begins runs during the drain (after
// the one already running), submissions after Close are ErrClosed,
// and Close is idempotent.
func TestServeEngineLifecycle(t *testing.T) {
	ctl := newBlockCtl(t)
	e := testEngine(t, EngineConfig{Workers: 1, Queue: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	running, err := e.Submit(blockSub(t, 31))
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	defer running.Release()
	ctl.waitStarted(t) // worker parked; queue empty
	queued, err := e.Submit(blockSub(t, 32))
	if err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	defer queued.Release()
	if _, err := e.Submit(blockSub(t, 33)); err != ErrSaturated {
		t.Fatalf("saturated submit err = %v, want ErrSaturated", err)
	}

	drained := make(chan error, 1)
	go func() { drained <- e.Close(ctx) }()
	for !engineClosed(e) {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Submit(blockSub(t, 34)); err != ErrClosed {
		t.Fatalf("closed submit err = %v, want ErrClosed", err)
	}
	ctl.releaseAll()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	first, ok1 := running.Outcome()
	second, ok2 := queued.Outcome()
	if !ok1 || !ok2 || first.Err != nil || second.Err != nil {
		t.Fatalf("outcomes after drain: %+v (%v), %+v (%v)", first, ok1, second, ok2)
	}
	if second.Finished.Before(first.Finished) {
		t.Fatalf("queued flight finished at %v, before the running one at %v", second.Finished, first.Finished)
	}
	if err := e.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestServeJobStoreEviction: at capacity the oldest finished job is
// evicted; with only live jobs the add is refused.
func TestServeJobStoreEviction(t *testing.T) {
	finished := func(id string) *Job {
		fl := &flight{done: make(chan struct{})}
		close(fl.done)
		return &Job{ID: id, Ticket: &Ticket{fl: fl, source: SourceFresh}, Created: time.Now()}
	}
	live := func(id string) *Job {
		return &Job{ID: id, Ticket: &Ticket{fl: &flight{done: make(chan struct{})}}, Created: time.Now()}
	}

	st := newJobStore(2)
	if err := st.Add(finished("f1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(live("l1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(live("l2")); err != nil {
		t.Fatalf("add with evictable job: %v", err)
	}
	if st.Get("f1") != nil {
		t.Fatal("finished job not evicted")
	}
	if st.Get("l1") == nil || st.Get("l2") == nil {
		t.Fatal("live jobs lost")
	}
	if err := st.Add(live("l3")); err != ErrJobsFull {
		t.Fatalf("add over live jobs err = %v, want ErrJobsFull", err)
	}
}

// TestServeInterruptedNotCached: a deadline-cut solve must not be
// replayed as if it were the complete answer.
func TestServeInterruptedNotCached(t *testing.T) {
	s, srv := testServer(t, Config{EngineConfig: EngineConfig{SolveTimeout: time.Nanosecond}})
	resp := post(t, srv, "/api/solve", solveRequest{Spec: fig1Spec(t), Algorithm: "exhaustive", K: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline solve status = %d, want 503", resp.StatusCode)
	}
	if n := s.Engine().CacheLen(); n != 0 {
		t.Fatalf("cache len = %d after interrupted solve, want 0", n)
	}
}

// lockProbeEng hands the engine under test to the lock-probe solver.
var lockProbeEng atomic.Pointer[Engine]

// lockProbeSolver emits an incumbent — which dispatches synchronously
// into the engine's incumbentRecorder on this goroutine — and then
// calls back into an Engine method that takes the engine mutex. If
// the engine held any lock across the solve or the EmitIncumbent
// callback, the re-entrant CacheLen would deadlock and the test's
// Wait deadline would fire.
type lockProbeSolver struct{}

func (lockProbeSolver) Traits() placement.Traits {
	return placement.Traits{
		Name:    "serve-test-lockprobe",
		Doc:     "test-only solver that re-enters the engine after EmitIncumbent",
		Anytime: true,
	}
}

func (lockProbeSolver) Solve(ctx context.Context, _ *netsim.Instance, _ placement.Options) (placement.Result, error) {
	placement.EmitIncumbent(ctx, netsim.NewPlan(0), 7)
	if e := lockProbeEng.Load(); e != nil {
		_ = e.CacheLen()
		lockProbeSaw.Store(inflightIncumbent(e))
	}
	return placement.Result{Plan: netsim.NewPlan(0), Bandwidth: 7, Feasible: true}, nil
}

// lockProbeSaw is the incumbent the lock-probe solver found on its
// in-flight flight right after emitting: the snapshot is only kept
// while the solve runs, so it is read from inside the solve.
var lockProbeSaw atomic.Pointer[Incumbent]

// inflightIncumbent returns the incumbent of the engine's single
// in-flight flight, or nil.
func inflightIncumbent(e *Engine) *Incumbent {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, fl := range e.inflight {
		return fl.incumbent.Load()
	}
	return nil
}

func init() { placement.Register(lockProbeSolver{}) }

// testEngine builds a raw engine (no HTTP layer) and arranges a drain.
func testEngine(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.Close(ctx); err != nil {
			t.Errorf("engine drain: %v", err)
		}
	})
	return e
}

// blockSub builds a Submission for the parking test solver.
func blockSub(t *testing.T, rate int) Submission {
	t.Helper()
	p, err := lineSpec(rate).Build()
	if err != nil {
		t.Fatal(err)
	}
	return Submission{Problem: p, Algorithm: "serve-test-block", K: 0}
}

// TestServeCoalescedCancelRefcountDrains: with a second waiter
// attached to an in-flight solve, cancelling one request must only
// decrement the flight's refcount — the solve keeps running for the
// survivor — and the final Release must drain the count to zero and
// deregister the flight. Run under -race, this also exercises the
// waiter bookkeeping against the solver goroutine.
func TestServeCoalescedCancelRefcountDrains(t *testing.T) {
	ctl := newBlockCtl(t)
	e := testEngine(t, EngineConfig{Workers: 1, Queue: 2})

	t1, err := e.Submit(blockSub(t, 21))
	if err != nil {
		t.Fatal(err)
	}
	if t1.Source() != SourceFresh {
		t.Fatalf("first source = %q, want fresh", t1.Source())
	}
	ctl.waitStarted(t)

	t2, err := e.Submit(blockSub(t, 21))
	if err != nil {
		t.Fatal(err)
	}
	if t2.Source() != SourceCoalesced {
		t.Fatalf("second source = %q, want coalesced", t2.Source())
	}

	waiters := func() int {
		e.mu.Lock()
		defer e.mu.Unlock()
		return t1.fl.waiters
	}
	if got := waiters(); got != 2 {
		t.Fatalf("waiters with coalesced attached = %d, want 2", got)
	}

	// Cancel the original request mid-solve: the coalesced waiter is
	// still attached, so the flight must survive un-cancelled.
	t1.Release()
	if got := waiters(); got != 1 {
		t.Fatalf("waiters after one release = %d, want 1", got)
	}
	if err := t1.fl.ctx.Err(); err != nil {
		t.Fatalf("flight cancelled while a waiter remains: %v", err)
	}

	ctl.releaseAll()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := t2.Wait(ctx)
	if err != nil || out.Err != nil {
		t.Fatalf("survivor wait: %v / %v", err, out.Err)
	}
	t2.Release()

	if got := waiters(); got != 0 {
		t.Fatalf("waiters after final release = %d, want 0 (refcount leak)", got)
	}
	e.mu.Lock()
	live := len(e.inflight)
	e.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d flights still registered after drain", live)
	}
}

// TestServeNoLockHeldAcrossEmitIncumbent: the solve and the
// EmitIncumbent→incumbentRecorder callback run with no engine lock
// held, pinned by a solver that re-enters Engine.CacheLen right after
// emitting. A lock held across the callback deadlocks here and trips
// the Wait deadline.
func TestServeNoLockHeldAcrossEmitIncumbent(t *testing.T) {
	e := testEngine(t, EngineConfig{Workers: 1, Queue: 2})
	lockProbeEng.Store(e)
	defer lockProbeEng.Store(nil)
	lockProbeSaw.Store(nil)

	p, err := lineSpec(31).Build()
	if err != nil {
		t.Fatal(err)
	}
	tk, err := e.Submit(Submission{Problem: p, Algorithm: "serve-test-lockprobe", K: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := tk.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v (engine lock held across solve/EmitIncumbent?)", err)
	}
	if out.Err != nil {
		t.Fatalf("solve: %v", out.Err)
	}
	if inc := lockProbeSaw.Load(); inc == nil || inc.Bandwidth != 7 {
		t.Fatalf("incumbent after emit = %+v", inc)
	}
}

// TestServeCacheLenRacesWithSubmit is the regression for CacheLen's
// unlocked cache read: hammer it concurrently with real solves that
// populate the cache. The race detector owns the assertion.
func TestServeCacheLenRacesWithSubmit(t *testing.T) {
	e := testEngine(t, EngineConfig{Workers: 2, Queue: 8, CacheSize: 16})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.CacheLen()
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 8; i++ {
		p, err := lineSpec(i).Build()
		if err != nil {
			t.Fatal(err)
		}
		tk, err := e.Submit(Submission{Problem: p, Algorithm: "gtp", K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		tk.Release()
	}
	close(stop)
	wg.Wait()
	if n := e.CacheLen(); n == 0 {
		t.Fatal("cache empty after eight distinct complete solves")
	}
}

// TestServeConcurrentCacheHitsAndFills: several goroutines submit a
// mix of repeated and distinct problems, so cache hits run while other
// flights fill the cache. The plan cache has no lock of its own —
// Engine.mu guards every call — and the race detector owns that
// assertion; every answer must also match a direct solve.
func TestServeConcurrentCacheHitsAndFills(t *testing.T) {
	const problems, goroutines, rounds = 6, 4, 12
	e := testEngine(t, EngineConfig{Workers: 2, Queue: 2 * goroutines, CacheSize: 2 * problems})
	subs := make([]Submission, problems)
	want := make([]float64, problems)
	for i := range subs {
		p, err := lineSpec(i + 1).Build()
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = Submission{Problem: p, Algorithm: "gtp", K: 1}
		res, err := p.Solve(context.Background(), "gtp", 1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Bandwidth
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % problems
				tk, err := e.Submit(subs[i])
				if err != nil {
					errc <- err
					return
				}
				out, err := tk.Wait(ctx)
				tk.Release()
				switch {
				case err != nil:
					errc <- err
				case out.Err != nil:
					errc <- out.Err
				case out.Result.Bandwidth != want[i]:
					errc <- fmt.Errorf("problem %d from %s: bandwidth %v, want %v", i, out.Source, out.Result.Bandwidth, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if n := e.CacheLen(); n != problems {
		t.Fatalf("CacheLen = %d, want %d distinct complete solves", n, problems)
	}
}
