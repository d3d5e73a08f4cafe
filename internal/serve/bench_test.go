package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tdmd"
)

// hotBody is one /api/solve body of the online-hot shape: a |V| = 200
// random general topology with 1500 shortest-path flows to three hubs,
// solved by gtp-lazy. seed picks the problem.
func hotBody(b *testing.B, seed int64) []byte {
	b.Helper()
	g := tdmd.GeneralRandom(200, 0.5, seed)
	flows := tdmd.GeneralFlows(g, []tdmd.NodeID{0, 1, 2}, tdmd.GenConfig{Density: 1e12, Seed: seed + 1, MaxFlows: 1500})
	body, err := json.Marshal(solveRequest{
		Spec:      tdmd.SpecFromProblem(g, flows, 0.5),
		Algorithm: string(tdmd.AlgGTPLazy),
	})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkServeSolve sends one /api/solve request per iteration from
// a single goroutine through Server.Mux into a recorder, so allocs/op
// is the whole request path (decode, build, fingerprint, cache or
// solve, encode) with no queueing or socket mixed in. "hit" re-sends
// one cached problem; "fresh" cycles more distinct problems than the
// plan cache holds, so every request misses and solves. Any response
// but a 200 from the expected source fails the benchmark.
func BenchmarkServeSolve(b *testing.B) {
	const cacheSize = 4
	for _, bc := range []struct {
		name   string
		bodies int
		source Source
	}{
		{"hit", 1, SourceCache},
		{"fresh", cacheSize + 1, SourceFresh},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bodies := make([][]byte, bc.bodies)
			for i := range bodies {
				bodies[i] = hotBody(b, int64(i+1))
			}
			s := New(Config{EngineConfig: EngineConfig{Workers: 1, CacheSize: cacheSize}}, slog.New(slog.NewTextHandler(io.Discard, nil)))
			b.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = s.Close(ctx)
			})
			mux := s.Mux()
			send := func(body []byte) *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodPost, "/api/solve", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, req)
				return rec
			}
			// Warm the cache (hit) and the one-time paths (both).
			for _, body := range bodies {
				send(body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := send(bodies[i%len(bodies)])
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
				if got := rec.Header().Get("X-Tdmd-Solve"); got != string(bc.source) {
					b.Fatalf("answered from %q, want %q", got, bc.source)
				}
			}
		})
	}
}
