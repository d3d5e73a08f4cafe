package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tdmd"
	"tdmd/internal/graph"
	"tdmd/internal/placement"
)

// maxRequestBytes bounds every JSON POST body; problem specs at the
// evaluation's scale are a few hundred KB at most. Larger problems go
// through the NDJSON job path, capped separately by MaxStreamBytes.
const maxRequestBytes = 4 << 20

// statusClientGone is the nginx-convention status recorded when the
// client disconnected before the response was ready. It is never a
// server error: observe counts it on its own series and keeps it out
// of tdmd_http_request_errors_total.
const statusClientGone = 499

// Config sizes the service; zero values pick defaults.
type Config struct {
	// EngineConfig sizes the solve engine the server wraps.
	EngineConfig
	// MaxJobs caps the async job store (default 1024).
	MaxJobs int
	// RetryAfter is the backoff hint sent with 429s (default 1s).
	RetryAfter time.Duration
	// MaxStreamBytes bounds NDJSON job bodies (default 256 MiB).
	MaxStreamBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxStreamBytes <= 0 {
		c.MaxStreamBytes = 256 << 20
	}
	return c
}

// Server is the HTTP face of the engine: request decoding, admission
// mapping (429/503), the async job API, readiness, and the observe
// middleware (metrics, access logs, panic containment).
type Server struct {
	cfg   Config
	eng   *Engine
	jobs  *JobStore
	log   *slog.Logger
	ready atomic.Bool
}

// New builds a started server around a fresh engine.
func New(cfg Config, logger *slog.Logger) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		eng:  NewEngine(cfg.EngineConfig),
		jobs: newJobStore(cfg.MaxJobs),
		log:  logger,
	}
	s.ready.Store(true)
	return s
}

// Engine exposes the solve engine (stats, tests, direct submission).
func (s *Server) Engine() *Engine { return s.eng }

// Drain flips readiness off: /readyz turns 503 so load balancers stop
// routing, while in-flight work keeps running until Close.
func (s *Server) Drain() { s.ready.Store(false) }

// Close stops admission and drains the engine; see Engine.Close.
func (s *Server) Close(ctx context.Context) error { return s.eng.Close(ctx) }

// Mux wires every route.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/solve", s.observe("/api/solve", s.handleSolve))
	mux.HandleFunc("POST /api/evaluate", s.observe("/api/evaluate", s.handleEvaluate))
	mux.HandleFunc("POST /v1/jobs", s.observe("/v1/jobs", s.handleJobCreate))
	mux.HandleFunc("GET /v1/jobs/{id}", s.observe("/v1/jobs/{id}", s.handleJobGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.observe("/v1/jobs/{id}", s.handleJobDelete))
	// Liveness: the process is up. Stays 200 through draining so the
	// platform does not kill a pod that is finishing its requests.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	// Readiness: willing to take new work; 503 once draining.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("GET /metrics", tdmd.MetricsHandler())
	return mux
}

// accessRecord is one request's record: when it started and the solve
// budget that applies to it, which the access-log line and every
// response body time against, plus the solve-specific fields a handler
// wants on its access-log line. The observe middleware threads one
// through the request context and logs it when the handler returns.
type accessRecord struct {
	start    time.Time
	deadline time.Duration // 0 = unbounded

	algorithm   string
	k           int
	interrupted bool
	source      Source
}

type recordKey struct{}

// newRecord starts a request's record now.
func (s *Server) newRecord() *accessRecord {
	return &accessRecord{start: time.Now(), deadline: s.cfg.SolveTimeout}
}

// record returns the request's accessRecord, or a throwaway one
// started now if the handler runs outside the observe middleware
// (tests calling handlers directly).
func (s *Server) record(ctx context.Context) *accessRecord {
	if rec, ok := ctx.Value(recordKey{}).(*accessRecord); ok {
		return rec
	}
	return s.newRecord()
}

// statusWriter captures the response code for metrics and logs, and
// whether anything was written yet — the panic recovery path can only
// send its 500 envelope on a pristine response.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// observe wraps an API handler with the request counters, the latency
// histogram, one structured access-log line per request, and panic
// containment: a panicking handler is answered with a 500 JSON
// envelope (when nothing was written yet), logged with its stack, and
// still lands in every metric series instead of vanishing into a
// killed connection.
func (s *Server) observe(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := s.newRecord()
		httpInflight.Inc()
		defer httpInflight.Dec()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				httpPanics.Inc()
				s.log.Error("handler panic",
					"route", route, "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				if !sw.wrote {
					sw.Header().Set("Content-Type", "application/json")
					sw.WriteHeader(http.StatusInternalServerError)
					encodeBody(sw, errorEnvelope{
						Error:     "internal error",
						ElapsedMS: rec.elapsedMS(),
					})
				} else {
					// Headers are gone; all we can still do is make the
					// books honest.
					sw.code = http.StatusInternalServerError
				}
			}
			elapsed := time.Since(rec.start)
			httpRequests.With(route, strconv.Itoa(sw.code)).Inc()
			httpDuration.With(route).Observe(elapsed.Seconds())
			switch {
			case sw.code == statusClientGone:
				httpClientGone.Inc()
			case sw.code >= 400:
				httpErrors.With(route).Inc()
			}
			attrs := []any{
				"method", r.Method,
				"route", route,
				"status", sw.code,
				"elapsed_ms", float64(elapsed.Microseconds()) / 1000,
			}
			if rec.algorithm != "" {
				attrs = append(attrs, "algorithm", rec.algorithm, "k", rec.k, "interrupted", rec.interrupted)
			}
			if rec.source != "" {
				attrs = append(attrs, "source", string(rec.source))
			}
			s.log.Info("request", attrs...)
		}()
		h(sw, r.WithContext(context.WithValue(r.Context(), recordKey{}, rec)))
	}
}

// elapsedMS is the request's wall time so far, in milliseconds.
func (rec *accessRecord) elapsedMS() float64 {
	return float64(time.Since(rec.start).Microseconds()) / 1000
}

// errorEnvelope is the uniform error body of every non-2xx response.
type errorEnvelope struct {
	Error     string  `json:"error"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// DeadlineMS is the solve budget that applied to the request, in
	// milliseconds; omitted when unbounded.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
}

// httpError writes the error envelope, timed and budgeted from rec.
func (rec *accessRecord) httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	env := errorEnvelope{
		Error:     fmt.Sprintf(format, args...),
		ElapsedMS: rec.elapsedMS(),
	}
	if rec.deadline > 0 {
		env.DeadlineMS = float64(rec.deadline.Microseconds()) / 1000
	}
	encodeBody(w, env)
}

// decodeJSON enforces the shared POST hygiene — bounded body,
// application/json content type, well-formed payload — and reports
// the response code to fail with when it returns an error. Decoding
// is strict: an unknown field is a 400 naming the field (a typo like
// "algoritm" must never be silently dropped), and trailing data after
// the JSON object is a 400 (a concatenated second document would
// otherwise be accepted and ignored).
func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) (int, error) {
	if code, err := requireJSON(r); err != nil {
		return code, err
	}
	if r.ContentLength > maxRequestBytes {
		return http.StatusRequestEntityTooLarge, bodyTooLarge("request", maxRequestBytes)
	}
	return decodeJSONBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), v)
}

// bodyTooLarge is the 413 error for a body over limit bytes: one whose
// Content-Length declares it, refused before any of it is read, or one
// that MaxBytesReader cuts off.
func bodyTooLarge(what string, limit int64) error {
	return fmt.Errorf("%s body exceeds %d bytes", what, limit)
}

// requireJSON refuses any Content-Type but application/json with 415.
func requireJSON(r *http.Request) (int, error) {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
		return http.StatusUnsupportedMediaType, fmt.Errorf("Content-Type must be application/json, got %q", ct)
	}
	return 0, nil
}

// decodeJSONBody is decodeJSON's decode of an already bounded body.
func decodeJSONBody(body io.Reader, v interface{}) (int, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge, bodyTooLarge("request", tooLarge.Limit)
		}
		// encoding/json reports unknown fields as `json: unknown field
		// "algoritm"`; the wrap keeps that field name front and center.
		return http.StatusBadRequest, fmt.Errorf("decoding request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return http.StatusBadRequest, fmt.Errorf("request body has trailing data after the JSON object")
	}
	return 0, nil
}

// bodyBufs recycles the buffers decodeSolveRequest reads bodies into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeSolveRequest is decodeJSON for a solveRequest, with a fast
// path. It reads the bounded body into a pooled buffer presized from
// Content-Length; a body in the canonical shape scanSolveRequest
// accepts is parsed without encoding/json. Any other body, or one cut
// short by a read error (the 413 among them), goes to decodeJSONBody
// as the same bytes followed by the same error, so the status, the
// error text and the decoded request are exactly decodeJSON's
// (FuzzSolveRequestDecode checks this).
func decodeSolveRequest(w http.ResponseWriter, r *http.Request) (solveRequest, int, error) {
	if code, err := requireJSON(r); err != nil {
		return solveRequest{}, code, err
	}
	if r.ContentLength > maxRequestBytes {
		return solveRequest{}, http.StatusRequestEntityTooLarge, bodyTooLarge("request", maxRequestBytes)
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	if r.ContentLength > 0 {
		// Room for the declared body and the final read that sees EOF.
		buf.Grow(int(min(r.ContentLength, maxRequestBytes)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		if req, ok := scanSolveRequest(buf.Bytes()); ok {
			return req, 0, nil
		}
	}
	body := io.Reader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		body = io.MultiReader(body, errReader{err})
	}
	var req solveRequest
	if code, err := decodeJSONBody(body, &req); err != nil {
		return solveRequest{}, code, err
	}
	return req, 0, nil
}

// scanSolveRequest parses the canonical solveRequest body, the shape
// json.Marshal gives a solveRequest whose spec EncodeSpecCompact would
// write:
//
//	{"spec":S,"algorithm":"A","k":K[,"seed":N|null]}
//
// S is a document tdmd.ScanCanonicalSpec claims; A is printable ASCII
// with no quote or backslash; K and N are integers as that scanner
// reads them (an optional minus, at most 18 digits, no leading zero).
// Only JSON whitespace may follow. ok is false for anything else.
//
//tdmd:hot
func scanSolveRequest(body []byte) (req solveRequest, ok bool) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"spec":`))
	if !ok {
		return solveRequest{}, false
	}
	spec, n, ok := tdmd.ScanCanonicalSpec(rest)
	if !ok {
		return solveRequest{}, false
	}
	if rest, ok = bytes.CutPrefix(rest[n:], []byte(`,"algorithm":"`)); !ok {
		return solveRequest{}, false
	}
	end := 0
	for end < len(rest) && rest[end] >= 0x20 && rest[end] < 0x7f && rest[end] != '"' && rest[end] != '\\' {
		end++
	}
	alg := rest[:end]
	if rest, ok = bytes.CutPrefix(rest[end:], []byte(`","k":`)); !ok {
		return solveRequest{}, false
	}
	k, rest, ok := scanInt(rest)
	if !ok || int64(int(k)) != k {
		return solveRequest{}, false
	}
	if after, found := bytes.CutPrefix(rest, []byte(`,"seed":`)); found {
		if rest, found = bytes.CutPrefix(after, []byte("null")); !found {
			var seed int64
			if seed, rest, ok = scanInt(after); !ok {
				return solveRequest{}, false
			}
			req.Seed = &seed
		}
	}
	if rest, ok = bytes.CutPrefix(rest, []byte("}")); !ok || len(bytes.TrimLeft(rest, " \t\r\n")) != 0 {
		return solveRequest{}, false
	}
	req.Spec, req.Algorithm, req.K = spec, string(alg), int(k)
	return req, true
}

// scanInt parses the integer at the start of b the way
// tdmd.ScanCanonicalSpec reads one: an optional minus sign, then 1–18
// digits with no leading zero. It returns the rest of b.
//
//tdmd:hot
func scanInt(b []byte) (int64, []byte, bool) {
	digits, neg := bytes.CutPrefix(b, []byte("-"))
	var v int64
	n := 0
	for ; n < len(digits) && digits[n] >= '0' && digits[n] <= '9'; n++ {
		v = v*10 + int64(digits[n]-'0')
	}
	if n == 0 || n > 18 || (n > 1 && digits[0] == '0') {
		return 0, b, false
	}
	if neg {
		v = -v
	}
	return v, digits[n:], true
}

// errReader returns err from every Read; decodeSolveRequest replays a
// body's read error with it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// solveStatus maps a solve error to its HTTP status: option
// mismatches are the client's fault (400), a server-side budget
// expiry is the service giving up (503), infeasibility and everything
// else is a valid request without an answer (422). Cancellation is
// 503 only when the server canceled (drain); when the request's own
// context is dead the client hung up first, which is recorded as 499
// and never counted as a server error.
func solveStatus(r *http.Request, err error) int {
	switch {
	case errors.Is(err, tdmd.ErrBadOptions):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		return statusClientGone
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// solveRequest is the /api/solve (and JSON /v1/jobs) payload. Seed is
// a pointer so "no seed" is distinguishable from seed 0: randomized
// algorithms require one, deterministic algorithms reject one, and
// silence is never an answer.
type solveRequest struct {
	Spec      tdmd.ProblemSpec `json:"spec"`
	Algorithm string           `json:"algorithm"`
	K         int              `json:"k"`
	Seed      *int64           `json:"seed"`
}

// solveResponse is the solved-plan wire shape.
type solveResponse struct {
	Plan      []int   `json:"plan"`
	Bandwidth float64 `json:"bandwidth"`
	Feasible  bool    `json:"feasible"`
	RawDemand float64 `json:"raw_demand"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Optimal is set when an exact algorithm certified the plan.
	Optimal bool `json:"optimal,omitempty"`
	// Interrupted is set when the solve hit the deadline and the plan
	// is the best found so far, not necessarily the full run's answer.
	Interrupted bool `json:"interrupted,omitempty"`
}

func makeSolveResponse(res tdmd.Result, rawDemand, elapsed float64) solveResponse {
	resp := solveResponse{
		// An explicit empty slice: "no boxes deployed" marshals as [],
		// never null, so clients can range without a nil check.
		Plan:        []int{},
		Bandwidth:   res.Bandwidth,
		Feasible:    res.Feasible,
		RawDemand:   rawDemand,
		ElapsedMS:   elapsed,
		Optimal:     res.Optimal,
		Interrupted: res.Interrupted != nil,
	}
	for _, v := range res.Plan.Vertices() {
		resp.Plan = append(resp.Plan, int(v))
	}
	return resp
}

// resolveAlgorithm applies the default algorithm and rejects a
// request no registered solver can run: an unknown name, or a k and
// seed that placement.ValidateOptions refuses for the solver's traits.
// The wire can carry a tree view, so the check assumes one; whether
// the spec has a root is checked once the problem is built. Callers
// resolve it before building the problem (and, for streams, before
// decoding the body), so such a request costs no build, no queue slot
// and no pool solve.
func resolveAlgorithm(name string, k int, seed *int64) (tdmd.Algorithm, error) {
	if name == "" {
		name = string(tdmd.AlgGTP)
	}
	s, ok := placement.Lookup(name)
	if !ok {
		return "", fmt.Errorf("unknown algorithm %q", name)
	}
	t := s.Traits()
	if err := placement.ValidateOptions(t, placement.Options{K: k}.Ambient(t, wireTree, seed)); err != nil {
		return "", err
	}
	return tdmd.Algorithm(name), nil
}

// wireTree stands in for a request's tree view while its algorithm is
// resolved, before the problem exists.
var wireTree = new(graph.Tree)

// buildSubmission turns a decoded solveRequest into an engine
// submission, applying the default algorithm and the tree
// requirement check. On error the int is the HTTP status.
func buildSubmission(req solveRequest) (Submission, int, error) {
	alg, err := resolveAlgorithm(req.Algorithm, req.K, req.Seed)
	if err != nil {
		return Submission{}, http.StatusBadRequest, err
	}
	problem, err := req.Spec.Build()
	if err != nil {
		return Submission{}, http.StatusBadRequest, fmt.Errorf("building problem: %v", err)
	}
	if alg.NeedsTree() && problem.Tree() == nil {
		return Submission{}, http.StatusBadRequest, fmt.Errorf("algorithm %s needs a spec with a root", alg)
	}
	if req.Seed != nil {
		// Ambient semantics: satisfies randomized solvers, ignored —
		// not rejected — by deterministic ones, matching the CLI.
		problem.WithSeed(*req.Seed)
	}
	return Submission{Problem: problem, Algorithm: alg, K: req.K, Seed: req.Seed}, 0, nil
}

// submit admits the submission, mapping admission failures to their
// HTTP responses (429 + Retry-After on saturation, 503 on drain).
// A nil ticket means the error response was already written.
func (s *Server) submit(w http.ResponseWriter, rec *accessRecord, sub Submission) *Ticket {
	ticket, err := s.eng.Submit(sub)
	switch {
	case errors.Is(err, ErrSaturated):
		s.setRetryAfter(w)
		rec.httpError(w, http.StatusTooManyRequests,
			"solve queue is full; retry after %s", s.cfg.RetryAfter)
		return nil
	case errors.Is(err, ErrClosed):
		rec.httpError(w, http.StatusServiceUnavailable, "server is draining")
		return nil
	case err != nil:
		rec.httpError(w, http.StatusInternalServerError, "admitting solve: %v", err)
		return nil
	}
	return ticket
}

// setRetryAfter sets the 429 backoff hint in whole seconds, rounded
// up. withDefaults keeps RetryAfter positive, so a sub-second backoff
// sends 1 rather than 0, which would tell clients to retry at once.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	secs := (s.cfg.RetryAfter + time.Second - 1) / time.Second
	w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.Context())
	req, code, err := decodeSolveRequest(w, r)
	if err != nil {
		rec.httpError(w, code, "%v", err)
		return
	}
	sub, code, err := buildSubmission(req)
	if err != nil {
		rec.httpError(w, code, "%v", err)
		return
	}
	rec.algorithm, rec.k = string(sub.Algorithm), sub.K
	ticket := s.submit(w, rec, sub)
	if ticket == nil {
		return
	}
	defer ticket.Release()
	out, werr := ticket.Wait(r.Context())
	if werr != nil {
		// The request context died while the solve ran: the client hung
		// up (or the connection broke). Release's refcount cancels the
		// flight if nobody else is coalesced onto it.
		rec.httpError(w, solveStatus(r, werr), "client went away: %v", werr)
		return
	}
	rec.source = out.Source
	if out.Err != nil {
		rec.httpError(w, solveStatus(r, out.Err), "solve: %v", out.Err)
		return
	}
	rec.interrupted = out.Result.Interrupted != nil
	w.Header().Set("X-Tdmd-Solve", string(out.Source))
	writeJSON(w, makeSolveResponse(out.Result, sub.Problem.Instance().RawDemand(), rec.elapsedMS()))
}

// evaluateRequest is the /api/evaluate payload.
type evaluateRequest struct {
	Spec tdmd.ProblemSpec `json:"spec"`
	Plan []int            `json:"plan"`
}

// boxReport is one deployed middlebox in the evaluate response.
type boxReport struct {
	Vertex int  `json:"vertex"`
	Flows  int  `json:"flows"`
	Rate   int  `json:"rate"`
	Idle   bool `json:"idle"`
}

// evaluateResponse carries the deployment report.
type evaluateResponse struct {
	Bandwidth      float64     `json:"bandwidth"`
	Feasible       bool        `json:"feasible"`
	SavingFraction float64     `json:"saving_fraction"`
	Boxes          []boxReport `json:"boxes"`
	UnservedFlows  []int       `json:"unserved_flows"`
}

// handleEvaluate scores a client-chosen plan. Evaluation is one
// allocation pass — far below solve cost — so it runs inline rather
// than through the pool.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.Context())
	var req evaluateRequest
	if code, err := decodeJSON(w, r, &req); err != nil {
		rec.httpError(w, code, "%v", err)
		return
	}
	problem, err := req.Spec.Build()
	if err != nil {
		rec.httpError(w, http.StatusBadRequest, "building problem: %v", err)
		return
	}
	plan := tdmd.NewPlan()
	n := problem.Instance().G.NumNodes()
	for _, v := range req.Plan {
		if v < 0 || v >= n {
			rec.httpError(w, http.StatusBadRequest, "plan vertex %d outside graph", v)
			return
		}
		plan.Add(tdmd.NodeID(v))
	}
	rep := problem.Report(plan)
	resp := evaluateResponse{
		Bandwidth:      rep.TotalBandwidth,
		Feasible:       rep.Feasible,
		SavingFraction: rep.SavingFraction,
		// Empty slices marshal as [] — an empty plan or a fully served
		// flow set must not surface as JSON null.
		Boxes:         []boxReport{},
		UnservedFlows: []int{},
	}
	resp.UnservedFlows = append(resp.UnservedFlows, rep.UnservedFlows...)
	for _, b := range rep.Boxes {
		resp.Boxes = append(resp.Boxes, boxReport{int(b.Vertex), b.Flows, b.Rate, b.Idle})
	}
	writeJSON(w, resp)
}

// jobResponse is the async job wire shape. Result appears once the
// job is done; incumbent while an anytime solve is still running.
type jobResponse struct {
	ID        string         `json:"id"`
	State     JobState       `json:"state"`
	Algorithm string         `json:"algorithm"`
	K         int            `json:"k"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Source    Source         `json:"source,omitempty"`
	Incumbent *Incumbent     `json:"incumbent,omitempty"`
	Result    *solveResponse `json:"result,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// jobJSON renders a job. elapsed_ms runs from creation to the
// outcome once the solve has settled, so every poll of a finished job
// returns the same body.
func (s *Server) jobJSON(j *Job) jobResponse {
	// State first: once it reads done or failed, the outcome below is
	// settled too.
	state := j.State()
	out, settled := j.Ticket.Outcome()
	end := time.Now()
	if settled {
		end = out.Finished
	}
	resp := jobResponse{
		ID:        j.ID,
		State:     state,
		Algorithm: string(j.Algorithm),
		K:         j.K,
		ElapsedMS: float64(end.Sub(j.Created).Microseconds()) / 1000,
	}
	switch resp.State {
	case JobDone:
		resp.Source = out.Source
		res := makeSolveResponse(out.Result, j.RawDemand, resp.ElapsedMS)
		resp.Result = &res
	case JobFailed:
		resp.Source = out.Source
		resp.Error = out.Err.Error()
	case JobRunning:
		resp.Incumbent = j.Ticket.Incumbent()
	}
	return resp
}

// handleJobCreate accepts an async solve: a JSON solveRequest, or a
// tdmd-flows/1 NDJSON stream (Content-Type application/x-ndjson) with
// algorithm/k/seed as query parameters — the streaming path bypasses
// the JSON body cap, so million-flow problems submit in constant
// decoder memory.
func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.Context())
	var sub Submission
	mt, _, mtErr := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if mtErr != nil {
		mt = "" // unparseable lands in the default (415) arm
	}
	switch mt {
	case "application/json":
		req, code, err := decodeSolveRequest(w, r)
		if err != nil {
			rec.httpError(w, code, "%v", err)
			return
		}
		sub, code, err = buildSubmission(req)
		if err != nil {
			rec.httpError(w, code, "%v", err)
			return
		}
	case "application/x-ndjson":
		var code int
		var err error
		sub, code, err = s.streamSubmission(w, r)
		if err != nil {
			rec.httpError(w, code, "%v", err)
			return
		}
	default:
		rec.httpError(w, http.StatusUnsupportedMediaType,
			"Content-Type must be application/json or application/x-ndjson, got %q", r.Header.Get("Content-Type"))
		return
	}
	rec.algorithm, rec.k = string(sub.Algorithm), sub.K

	created := time.Now()
	ticket := s.submit(w, rec, sub)
	if ticket == nil {
		return
	}
	job := newJob(sub, ticket, created)
	if err := s.jobs.Add(job); err != nil {
		ticket.Release()
		s.setRetryAfter(w)
		rec.httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	jobsCreatedTotal.Inc()
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	encodeBody(w, s.jobJSON(job))
}

// streamSubmission builds a Submission from an NDJSON flow stream
// plus query parameters. On error the int is the HTTP status.
func (s *Server) streamSubmission(w http.ResponseWriter, r *http.Request) (Submission, int, error) {
	q := r.URL.Query()
	// The query parameters are checked before the body is read, so a
	// bad one costs no decoding.
	var sub Submission
	if ks := q.Get("k"); ks != "" {
		k, err := strconv.Atoi(ks)
		if err != nil {
			return Submission{}, http.StatusBadRequest, fmt.Errorf("query parameter k: %v", err)
		}
		sub.K = k
	}
	if ss := q.Get("seed"); ss != "" {
		seed, err := strconv.ParseInt(ss, 10, 64)
		if err != nil {
			return Submission{}, http.StatusBadRequest, fmt.Errorf("query parameter seed: %v", err)
		}
		sub.Seed = &seed
	}
	alg, err := resolveAlgorithm(q.Get("algorithm"), sub.K, sub.Seed)
	if err != nil {
		return Submission{}, http.StatusBadRequest, err
	}
	sub.Algorithm = alg
	if r.ContentLength > s.cfg.MaxStreamBytes {
		return Submission{}, http.StatusRequestEntityTooLarge, bodyTooLarge("stream", s.cfg.MaxStreamBytes)
	}
	body := io.Reader(http.MaxBytesReader(w, r.Body, s.cfg.MaxStreamBytes))
	if r.ContentLength > 0 {
		body = &declaredBody{r: body, left: r.ContentLength}
	}
	problem, err := tdmd.DecodeStream(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return Submission{}, http.StatusRequestEntityTooLarge, bodyTooLarge("stream", tooLarge.Limit)
		}
		return Submission{}, http.StatusBadRequest, fmt.Errorf("decoding %s stream: %v", tdmd.StreamFormat, err)
	}
	if alg.NeedsTree() && problem.Tree() == nil {
		return Submission{}, http.StatusBadRequest, fmt.Errorf("algorithm %s needs a stream with a root", alg)
	}
	if sub.Seed != nil {
		problem.WithSeed(*sub.Seed)
	}
	sub.Problem = problem
	return sub, 0, nil
}

// declaredBody is a request body of declared Content-Length whose Len
// reports the bytes not yet read, as a *bytes.Reader's does, so the
// stream decoder can size its flow arenas from what is still to come
// (tdmd.ProblemBuilder.ReadStream). A chunked body has no declared
// length and is not wrapped.
type declaredBody struct {
	r    io.Reader
	left int64
}

func (b *declaredBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.left -= int64(n)
	return n, err
}

// Len reports the declared bytes not yet read, at most math.MaxInt.
func (b *declaredBody) Len() int { return int(min(max(b.left, 0), math.MaxInt)) }

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.Context())
	job := s.jobs.Get(r.PathValue("id"))
	if job == nil {
		rec.httpError(w, http.StatusNotFound, "no such job")
		return
	}
	rec.algorithm, rec.k = string(job.Algorithm), job.K
	writeJSON(w, s.jobJSON(job))
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.Context())
	job := s.jobs.Get(r.PathValue("id"))
	if job == nil {
		rec.httpError(w, http.StatusNotFound, "no such job")
		return
	}
	job.Cancel()
	writeJSON(w, s.jobJSON(job))
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	encodeBody(w, v)
}

// encodeBody writes v as the JSON body after the status line is
// already committed. An encode error here means the client hung up
// mid-body — nothing can be resent — so it is logged and the response
// left as-is.
func encodeBody(w io.Writer, v interface{}) {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("encoding response", "err", err)
	}
}
