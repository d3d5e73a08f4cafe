package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tdmd"
	"tdmd/internal/paperfix"
)

func fig1Spec(t testing.TB) tdmd.ProblemSpec {
	t.Helper()
	g, flows, lambda := paperfix.Fig1()
	return tdmd.SpecFromProblem(g, flows, lambda)
}

// testServer builds a started Server on a silent logger plus an
// httptest frontend; both are torn down via t.Cleanup, engine last.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return testServerLog(t, cfg, slog.New(slog.NewTextHandler(io.Discard, nil)))
}

func testServerLog(t *testing.T, cfg Config, logger *slog.Logger) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg, logger)
	srv := httptest.NewServer(s.Mux())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("engine drain: %v", err)
		}
	})
	return s, srv
}

func post(t *testing.T, srv *httptest.Server, path string, body interface{}) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, srv, path, buf)
}

func postRaw(t *testing.T, srv *httptest.Server, path string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// countSeries reads one cumulative series value from the default
// registry's exposition.
func countSeries(t *testing.T, prefix string) int64 {
	t.Helper()
	var sb strings.Builder
	if err := tdmd.WriteMetricsText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

func TestServeSolveEndpoint(t *testing.T) {
	_, srv := testServer(t, Config{})
	resp := post(t, srv, "/api/solve", solveRequest{
		Spec: fig1Spec(t), Algorithm: "gtp", K: 3,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Tdmd-Solve"); got != string(SourceFresh) {
		t.Fatalf("X-Tdmd-Solve = %q, want fresh", got)
	}
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Bandwidth != 8 || !out.Feasible || len(out.Plan) != 3 {
		t.Fatalf("solve response: %+v", out)
	}
	if out.RawDemand != 16 {
		t.Fatalf("raw demand = %v", out.RawDemand)
	}
}

func TestServeSolveDefaultsAndErrors(t *testing.T) {
	_, srv := testServer(t, Config{})
	// Default algorithm (gtp) with an infeasible budget -> 422.
	resp := post(t, srv, "/api/solve", solveRequest{Spec: fig1Spec(t), K: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible status = %d", resp.StatusCode)
	}
	// Tree algorithm without a root -> 400.
	resp = post(t, srv, "/api/solve", solveRequest{Spec: fig1Spec(t), Algorithm: "dp", K: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dp-without-root status = %d", resp.StatusCode)
	}
	// Unregistered algorithm -> 400 naming it, before any build or solve.
	solves := solvesTotal.Value()
	resp = post(t, srv, "/api/solve", solveRequest{Spec: fig1Spec(t), Algorithm: "gtp-paralel", K: 3})
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(env.Error, "gtp-paralel") {
		t.Fatalf("unknown algorithm: status = %d, error %q", resp.StatusCode, env.Error)
	}
	if got := solvesTotal.Value(); got != solves {
		t.Fatalf("unknown algorithm reached the pool: solves %d -> %d", solves, got)
	}
	// Malformed JSON -> 400.
	r := postRaw(t, srv, "/api/solve", []byte("{nope"))
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", r.StatusCode)
	}
	// Wrong method -> 405.
	g, err := http.Get(srv.URL + "/api/solve")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", g.StatusCode)
	}
}

// TestServeStrictDecodeUnknownField: a typo'd field must be a 400
// naming the field, never silently dropped (the old decoder accepted
// {"algoritm": "dp"} and solved with the default algorithm instead).
func TestServeStrictDecodeUnknownField(t *testing.T) {
	_, srv := testServer(t, Config{})
	spec, err := json.Marshal(fig1Spec(t))
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"spec":` + string(spec) + `,"algoritm":"gtp","k":3}`)
	resp := postRaw(t, srv, "/api/solve", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d, want 400", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error, "algoritm") {
		t.Fatalf("error %q does not name the offending field", env.Error)
	}
}

// TestServeTrailingGarbage400: data after the JSON object is a 400 —
// a concatenated second document must not be silently ignored.
func TestServeTrailingGarbage400(t *testing.T) {
	_, srv := testServer(t, Config{})
	good, err := json.Marshal(solveRequest{Spec: fig1Spec(t), Algorithm: "gtp", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, trailer := range []string{"{}", `"x"`, "[1,2]"} {
		resp := postRaw(t, srv, "/api/solve", append(append([]byte{}, good...), trailer...))
		var env errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("trailer %q: status = %d, want 400", trailer, resp.StatusCode)
		}
		if !strings.Contains(env.Error, "trailing") {
			t.Fatalf("trailer %q: error %q does not mention trailing data", trailer, env.Error)
		}
	}
}

func TestServeEvaluateEndpoint(t *testing.T) {
	_, srv := testServer(t, Config{})
	resp := post(t, srv, "/api/evaluate", evaluateRequest{
		Spec: fig1Spec(t),
		Plan: []int{int(paperfix.V(2)), int(paperfix.V(5))},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out evaluateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Bandwidth != 12 || !out.Feasible || len(out.Boxes) != 2 {
		t.Fatalf("evaluate response: %+v", out)
	}
	// Out-of-range plan vertex -> 400.
	bad := post(t, srv, "/api/evaluate", evaluateRequest{Spec: fig1Spec(t), Plan: []int{99}})
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad plan status = %d", bad.StatusCode)
	}
}

func TestServeHealthz(t *testing.T) {
	_, srv := testServer(t, Config{})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestServeContentTypeRequired: POSTs without a JSON content type are
// 415 on every POST endpoint.
func TestServeContentTypeRequired(t *testing.T) {
	_, srv := testServer(t, Config{})
	for _, path := range []string{"/api/solve", "/api/evaluate", "/v1/jobs"} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewBufferString("{}"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "text/plain")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("%s with text/plain: status = %d, want 415", path, resp.StatusCode)
		}
	}
}

// TestServeBodyTooLarge: a body over the 4 MB cap is rejected with 413.
func TestServeBodyTooLarge(t *testing.T) {
	_, srv := testServer(t, Config{})
	huge := bytes.Repeat([]byte(" "), maxRequestBytes+2)
	resp := postRaw(t, srv, "/api/solve", huge)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status = %d, want 413", resp.StatusCode)
	}
}

// TestServeSolveDeadline503: with a 1 ns solve budget the flight's
// context is already expired when the solver starts, so even the
// exhaustive search is cut off before any feasible incumbent -> 503.
func TestServeSolveDeadline503(t *testing.T) {
	_, srv := testServer(t, Config{SolveTimeout: time.Nanosecond})
	resp := post(t, srv, "/api/solve", solveRequest{
		Spec: fig1Spec(t), Algorithm: "exhaustive", K: 3,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline solve: status = %d, want 503", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", env.Error)
	}
}

// TestServeBadOptions400: option mismatches are 400 with the JSON
// envelope carrying the request scope.
func TestServeBadOptions400(t *testing.T) {
	_, srv := testServer(t, Config{SolveTimeout: 2 * time.Second})
	cases := []struct {
		name string
		req  solveRequest
	}{
		{"random without seed", solveRequest{Spec: fig1Spec(t), Algorithm: "random", K: 3}},
		{"gtp-lazy with budget", solveRequest{Spec: fig1Spec(t), Algorithm: "gtp-lazy", K: 3}},
	}
	for _, tc := range cases {
		resp := post(t, srv, "/api/solve", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		var env errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if env.Error == "" || env.ElapsedMS < 0 {
			t.Fatalf("%s: envelope %+v", tc.name, env)
		}
		if env.DeadlineMS != 2000 {
			t.Fatalf("%s: deadline_ms = %v, want 2000", tc.name, env.DeadlineMS)
		}
	}
}

// TestServeSolveWithSeedAndOptimal: a seeded random solve works, and
// an exact algorithm reports optimal=true on an uninterrupted run.
func TestServeSolveWithSeedAndOptimal(t *testing.T) {
	_, srv := testServer(t, Config{})
	seed := int64(7)
	resp := post(t, srv, "/api/solve", solveRequest{
		Spec: fig1Spec(t), Algorithm: "random", K: 3, Seed: &seed,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeded random: status = %d", resp.StatusCode)
	}
	opt := post(t, srv, "/api/solve", solveRequest{
		Spec: fig1Spec(t), Algorithm: "exhaustive", K: 3,
	})
	defer opt.Body.Close()
	var out solveResponse
	if err := json.NewDecoder(opt.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Optimal || out.Interrupted {
		t.Fatalf("exhaustive response: %+v", out)
	}
}

// TestServeEmptySlicesMarshalAsArrays pins the wire shape: plan,
// boxes and unserved_flows serialize as [], never null. Decoding into
// typed structs would hide the regression, so assertions run on the
// raw JSON.
func TestServeEmptySlicesMarshalAsArrays(t *testing.T) {
	_, srv := testServer(t, Config{})

	resp := post(t, srv, "/api/evaluate", evaluateRequest{Spec: fig1Spec(t), Plan: []int{}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-plan evaluate: status = %d", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["boxes"]) != "[]" {
		t.Fatalf(`boxes = %s, want []`, raw["boxes"])
	}
	if string(raw["unserved_flows"]) == "null" {
		t.Fatalf("unserved_flows marshaled as null")
	}

	spec := fig1Spec(t)
	problem, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, problem.Instance().G.NumNodes())
	for i := range all {
		all[i] = i
	}
	full := post(t, srv, "/api/evaluate", evaluateRequest{Spec: spec, Plan: all})
	defer full.Body.Close()
	var fullRaw map[string]json.RawMessage
	if err := json.NewDecoder(full.Body).Decode(&fullRaw); err != nil {
		t.Fatal(err)
	}
	if string(fullRaw["unserved_flows"]) != "[]" {
		t.Fatalf(`unserved_flows = %s, want []`, fullRaw["unserved_flows"])
	}

	solve := post(t, srv, "/api/solve", solveRequest{Spec: fig1Spec(t), Algorithm: "gtp", K: 3})
	defer solve.Body.Close()
	var solveRaw map[string]json.RawMessage
	if err := json.NewDecoder(solve.Body).Decode(&solveRaw); err != nil {
		t.Fatal(err)
	}
	if string(solveRaw["plan"]) == "null" || !strings.HasPrefix(string(solveRaw["plan"]), "[") {
		t.Fatalf("plan = %s, want a JSON array", solveRaw["plan"])
	}
}

// TestServeReadyzFlipsOnDrain: /healthz is liveness and stays 200,
// /readyz turns 503 the moment the server starts draining.
func TestServeReadyzFlipsOnDrain(t *testing.T) {
	s, srv := testServer(t, Config{})
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("ready /readyz = %d, want 200", got)
	}
	s.Drain() // what main() does on SIGTERM, before Shutdown
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200 (liveness is not readiness)", got)
	}
}

// TestServeDPHugeRate400: the tree DP's tables grow with the total
// rate, so a small body with one rate-(2³¹−1) flow must be refused as
// a client error before any table is allocated, and the server must
// keep answering.
func TestServeDPHugeRate400(t *testing.T) {
	_, srv := testServer(t, Config{})
	body := []byte(`{"spec":{"nodes":["a","b","c"],"edges":[[0,1],[1,0],[1,2],[2,1]],` +
		`"flows":[{"rate":2147483647,"path":[2,1,0]}],"lambda":0.5,"root":0},"algorithm":"dp","k":2}`)
	resp := postRaw(t, srv, "/api/solve", body)
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(env.Error, "cells") {
		t.Fatalf("status %d, error %q; want 400 naming the cell cap", resp.StatusCode, env.Error)
	}
	ready, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after the refused solve = %d, want 200", ready.StatusCode)
	}
}

// TestServeMetricsEndpoint: /metrics serves parseable Prometheus text
// carrying the HTTP, serve and solver series fed by the solve that
// just ran.
func TestServeMetricsEndpoint(t *testing.T) {
	_, srv := testServer(t, Config{})
	resp := post(t, srv, "/api/solve", solveRequest{Spec: fig1Spec(t), Algorithm: "gtp", K: 3})
	resp.Body.Close()

	m, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	if m.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", m.StatusCode)
	}
	if ct := m.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(m.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`tdmd_http_requests_total{route="/api/solve",code="200"}`,
		`tdmd_http_request_duration_seconds_count{route="/api/solve"}`,
		"tdmd_http_requests_in_flight",
		"tdmd_serve_solves_total",
		"tdmd_serve_queue_capacity",
		"tdmd_serve_workers",
		"tdmd_serve_cache_misses_total",
		`tdmd_solve_runs_total{algorithm="gtp",outcome="ok"}`,
		"tdmd_netsim_state_cache_hits_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Every line must parse as comment or "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("unparseable exposition line %q", line)
		}
	}
}

// syncBuffer makes a bytes.Buffer safe to share between the test and
// the server goroutines writing access logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls until the buffer contains want: the access log line
// is written after the handler returns, which can trail the client
// seeing the response.
func (b *syncBuffer) waitFor(t *testing.T, want string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s := b.String(); strings.Contains(s, want) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("log never contained %q:\n%s", want, b.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeAccessLogFields: each API request logs one structured line
// with method, route, status and elapsed time; solves add algorithm,
// k, the interruption flag and the outcome source.
func TestServeAccessLogFields(t *testing.T) {
	var logbuf syncBuffer
	_, srv := testServerLog(t, Config{}, slog.New(slog.NewTextHandler(&logbuf, nil)))

	resp := post(t, srv, "/api/solve", solveRequest{Spec: fig1Spec(t), Algorithm: "gtp", K: 3})
	resp.Body.Close()
	line := logbuf.waitFor(t, "route=/api/solve")
	for _, want := range []string{
		"method=POST", "status=200", "algorithm=gtp", "k=3", "interrupted=false",
		"elapsed_ms=", "source=fresh",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log missing %q:\n%s", want, line)
		}
	}

	// Error responses log their status too.
	bad := post(t, srv, "/api/solve", solveRequest{Spec: fig1Spec(t), Algorithm: "random", K: 3})
	bad.Body.Close()
	logbuf.waitFor(t, "status=400")
}

// TestServeErrorEnvelopeOn413And415: the oversized-body and
// wrong-media-type rejections carry the same JSON envelope as every
// other error.
func TestServeErrorEnvelopeOn413And415(t *testing.T) {
	_, srv := testServer(t, Config{})

	huge := bytes.Repeat([]byte(" "), maxRequestBytes+2)
	resp := postRaw(t, srv, "/api/solve", huge)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status = %d, want 413", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("413 body is not the JSON envelope: %v", err)
	}
	if !strings.Contains(env.Error, "bytes") || env.ElapsedMS < 0 {
		t.Fatalf("413 envelope: %+v", env)
	}

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/evaluate", bytes.NewBufferString("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	wrong, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Body.Close()
	if wrong.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain: status = %d, want 415", wrong.StatusCode)
	}
	env = errorEnvelope{}
	if err := json.NewDecoder(wrong.Body).Decode(&env); err != nil {
		t.Fatalf("415 body is not the JSON envelope: %v", err)
	}
	if !strings.Contains(env.Error, "application/json") {
		t.Fatalf("415 envelope: %+v", env)
	}
}

// TestServeSolveFeedsSolverMetrics: a request-driven solve must land
// in the per-algorithm histogram exposed by the library registry (the
// engine tees the metrics observer through its incumbent recorder).
func TestServeSolveFeedsSolverMetrics(t *testing.T) {
	_, srv := testServer(t, Config{})
	before := countSeries(t, `tdmd_solve_duration_seconds_count{algorithm="gtp"}`)
	resp := post(t, srv, "/api/solve", solveRequest{Spec: fig1Spec(t), Algorithm: "gtp", K: 3})
	resp.Body.Close()
	after := countSeries(t, `tdmd_solve_duration_seconds_count{algorithm="gtp"}`)
	if after != before+1 {
		t.Fatalf("solve count %d -> %d, want +1", before, after)
	}
}

// TestServePanicRecovery: a panicking handler is answered with the
// 500 JSON envelope, counted in the panic and request series, and the
// connection survives (a second request works).
func TestServePanicRecovery(t *testing.T) {
	var logbuf syncBuffer
	s := New(Config{}, slog.New(slog.NewTextHandler(&logbuf, nil)))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", s.observe("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	panicsBefore := countSeries(t, "tdmd_http_handler_panics_total")
	requestsBefore := countSeries(t, `tdmd_http_requests_total{route="/boom",code="500"}`)
	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatalf("panicking handler killed the connection: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("500 body is not the JSON envelope: %v", err)
	}
	if env.Error == "" {
		t.Fatalf("500 envelope: %+v", env)
	}
	if got := countSeries(t, "tdmd_http_handler_panics_total"); got != panicsBefore+1 {
		t.Fatalf("panic counter %d -> %d, want +1", panicsBefore, got)
	}
	if got := countSeries(t, `tdmd_http_requests_total{route="/boom",code="500"}`); got != requestsBefore+1 {
		t.Fatalf("request counter %d -> %d, want +1 (panics must still be recorded)", requestsBefore, got)
	}
	log := logbuf.waitFor(t, "handler panic")
	if !strings.Contains(log, "kaboom") || !strings.Contains(log, "stack=") {
		t.Fatalf("panic log missing value or stack:\n%s", log)
	}
	// The server is still alive.
	again, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	again.Body.Close()
}

// TestServeCacheHitBitIdentical: an identical second request replays
// the cached plan bit-for-bit (the response bodies match except for
// elapsed_ms) and is marked as a cache hit.
func TestServeCacheHitBitIdentical(t *testing.T) {
	s, srv := testServer(t, Config{})
	req := solveRequest{Spec: fig1Spec(t), Algorithm: "gtp", K: 3}

	strip := func(resp *http.Response) map[string]json.RawMessage {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var raw map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		delete(raw, "elapsed_ms")
		return raw
	}

	first := post(t, srv, "/api/solve", req)
	if got := first.Header.Get("X-Tdmd-Solve"); got != string(SourceFresh) {
		t.Fatalf("first solve source = %q, want fresh", got)
	}
	fresh := strip(first)
	if s.Engine().CacheLen() != 1 {
		t.Fatalf("cache len = %d after first solve, want 1", s.Engine().CacheLen())
	}

	second := post(t, srv, "/api/solve", req)
	if got := second.Header.Get("X-Tdmd-Solve"); got != string(SourceCache) {
		t.Fatalf("second solve source = %q, want cache", got)
	}
	cached := strip(second)
	if !reflect.DeepEqual(fresh, cached) {
		t.Fatalf("cached response differs from fresh:\nfresh:  %v\ncached: %v", fresh, cached)
	}

	// A different budget is a different fingerprint: fresh again.
	third := post(t, srv, "/api/solve", solveRequest{Spec: fig1Spec(t), Algorithm: "gtp", K: 4})
	third.Body.Close()
	if got := third.Header.Get("X-Tdmd-Solve"); got != string(SourceFresh) {
		t.Fatalf("different-k solve source = %q, want fresh", got)
	}
}

// TestServeRootOutOfRange400: a spec or stream root beyond the last
// vertex is a 400 naming it on /api/solve and on both /v1/jobs
// formats, for a tree algorithm and for one that needs no tree.
func TestServeRootOutOfRange400(t *testing.T) {
	s, srv := testServer(t, Config{Workers: 1, Queue: 2})
	spec := tdmd.ProblemSpec{
		Nodes: []string{"a", "b"}, Edges: [][2]int{{0, 1}, {1, 0}},
		Flows: []tdmd.FlowSpec{{Rate: 2, Path: []int{1, 0}}}, Lambda: 0.5, Root: 7,
	}
	var ndjson bytes.Buffer
	w, err := tdmd.NewFlowStreamWriter(&ndjson, tdmd.StreamHeader{Nodes: spec.Nodes, Edges: spec.Edges, Lambda: spec.Lambda, Root: spec.Root})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(2, tdmd.Path{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"gtp", "dp"} {
		for _, path := range []string{"/api/solve", "/v1/jobs"} {
			resp := post(t, srv, path, solveRequest{Spec: spec, Algorithm: alg, K: 1})
			var env errorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(env.Error, "root 7 out of range") {
				t.Errorf("%s %s: status %d, error %q; want 400 naming the root", path, alg, resp.StatusCode, env.Error)
			}
		}
		code, msg := postNDJSON(t, s, "algorithm="+alg+"&k=1", ndjson.Bytes())
		if code != http.StatusBadRequest || !strings.Contains(msg, "root 7 out of range") {
			t.Errorf("NDJSON job %s: status %d, error %q; want 400 naming the root", alg, code, msg)
		}
	}
}
