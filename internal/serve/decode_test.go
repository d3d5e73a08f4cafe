package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"tdmd"
)

// solveBodySpec is the canonical spec inside most of the differential
// cases' bodies.
const solveBodySpec = `{"nodes":["a","b","c"],"edges":[[0,1],[1,0],[1,2],[2,1]],"flows":[{"rate":2,"path":[2,1,0]},{"rate":1,"path":[0,1]}],"lambda":0.5,"root":0}`

// nonCanonicalBodies are /api/solve bodies decodeSolveRequest must
// leave to encoding/json, which accepts some and rejects others.
var nonCanonicalBodies = []string{
	`{"algorithm":"gtp","spec":` + solveBodySpec + `,"k":2}`,
	`{"spec":` + solveBodySpec + `,"k":2,"algorithm":"gtp"}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2,"k":3}`,
	`{"spec":` + solveBodySpec + `,"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2}`,
	`{ "spec":` + solveBodySpec + `,"algorithm":"gtp","k":2}`,
	` {"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2}` + " \n\t\r",
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp-ls","k":2}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp\\u002dls","k":2}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp-läzy","k":2}`,
	"{\"spec\":" + solveBodySpec + ",\"algorithm\":\"gtp\xff\",\"k\":2}",
	"{\"spec\":{\"nodes\":[\"\xff\",\"b\"],\"edges\":[[0,1]],\"flows\":[],\"lambda\":0.5,\"root\":-1},\"algorithm\":\"gtp\",\"k\":2}",
	`{"spec":{"nodes":["a\"b","c"],"edges":[[0,1]],"flows":[],"lambda":0.5,"root":-1},"algorithm":"gtp","k":2}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":-0}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":-2}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":1e2}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":1.0}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":02}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2,"seed":1234567890123456789}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2,"seed":-123456789012345678}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2,"seed":9223372036854775808}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2,"seed":"7"}`,
	`{"spec":{"nodes":["a","b"],"edges":[[0,1]],"flows":[],"lambda":.5,"root":-1},"algorithm":"gtp","k":2}`,
	`{"spec":{"nodes":["a","b"],"edges":[[0,1]],"flows":[],"lambda":5e-1,"root":-1},"algorithm":"gtp","k":2}`,
	`{"spec":{"nodes":null,"edges":null,"flows":null,"lambda":0,"root":-1},"algorithm":"gtp","k":2,"seed":null}`,
	`{"spec":null,"algorithm":"gtp","k":2}`,
	`{"spec":` + solveBodySpec + `,"algoritm":"gtp","k":2}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2,"extra":1}`,
	`{"spec":{"nodes":["a"],"edges":[],"flows":[],"lamda":0.5,"root":-1},"algorithm":"gtp","k":2}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2}{}`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2} x`,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2`,
	`{"spec":` + solveBodySpec,
	`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2,}`,
	``,
	`null`,
	`[]`,
}

// canonicalBodies are bodies the scanner must claim: what json.Marshal
// writes for a solveRequest (so "seed" is null or a number), with and
// without the seed key.
func canonicalBodies(t testing.TB) [][]byte {
	t.Helper()
	seed, neg := int64(7), int64(-42)
	var out [][]byte
	for _, req := range []solveRequest{
		{Spec: fig1Spec(t), Algorithm: "gtp", K: 3},
		{Spec: fig1Spec(t), Algorithm: "exhaustive", K: 3, Seed: &seed},
		{Spec: fig1Spec(t), Algorithm: "", K: -1, Seed: &neg},
		{Spec: tdmd.ProblemSpec{Root: -1}, Algorithm: "bogus", K: 0},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	out = append(out,
		[]byte(`{"spec":`+solveBodySpec+`,"algorithm":"gtp-lazy","k":0}`),
		[]byte(`{"spec":`+solveBodySpec+`,"algorithm":"dp","k":2}`+"\n"))
	return out
}

// sizedBodies are the cap's edge cases: a canonical body padded with
// trailing whitespace to exactly maxRequestBytes (accepted), and one
// whose node name makes it a byte longer than the cap (413).
func sizedBodies() [][]byte {
	head := []byte(`{"spec":` + solveBodySpec + `,"algorithm":"gtp","k":2}`)
	exact := append(head, bytes.Repeat([]byte(" "), maxRequestBytes-len(head))...)
	pre, post := `{"spec":{"nodes":["`, `"],"edges":[],"flows":[],"lambda":0,"root":-1},"algorithm":"gtp","k":1}`
	over := []byte(pre + strings.Repeat("n", maxRequestBytes+1-len(pre)-len(post)) + post)
	return [][]byte{exact, over}
}

// requireSameSolveDecode fails unless decodeSolveRequest and the
// encoding/json decodeJSON agree on body: the same status, the same
// error text and, on success, the same solveRequest.
func requireSameSolveDecode(t *testing.T, body []byte) {
	t.Helper()
	post := func() *http.Request {
		req := httptest.NewRequest(http.MethodPost, "/api/solve", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		return req
	}
	got, gotCode, gotErr := decodeSolveRequest(httptest.NewRecorder(), post())
	var want solveRequest
	wantCode, wantErr := decodeJSON(httptest.NewRecorder(), post(), &want)
	what := body
	if len(what) > 256 {
		what = append(what[:128:128], "..."...)
	}
	if gotCode != wantCode || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("body %q (%d bytes): status %d %v; decodeJSON gives %d %v", what, len(body), gotCode, gotErr, wantCode, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: decoded %+v; decodeJSON gives %+v", what, got, want)
	}
}

// TestDecodeSolveRequestFastPath pins the fast path: the scanner
// claims every canonical body, and a body one byte over the cap is
// still a 413. Agreement with decodeJSON on these and the other bodies
// is checked by FuzzSolveRequestDecode's seeds.
func TestDecodeSolveRequestFastPath(t *testing.T) {
	for _, body := range canonicalBodies(t) {
		if _, ok := scanSolveRequest(body); !ok {
			t.Fatalf("scanner did not claim canonical body %q", body)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/api/solve", bytes.NewReader(sizedBodies()[1]))
	req.Header.Set("Content-Type", "application/json")
	if _, code, _ := decodeSolveRequest(httptest.NewRecorder(), req); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the cap: status %d, want 413", code)
	}
}

// FuzzSolveRequestDecode is the differential oracle for the /api/solve
// decoder: decodeSolveRequest and decodeJSON agree on every body.
func FuzzSolveRequestDecode(f *testing.F) {
	for _, body := range canonicalBodies(f) {
		f.Add(body)
	}
	for _, body := range nonCanonicalBodies {
		f.Add([]byte(body))
	}
	for _, body := range sizedBodies() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		requireSameSolveDecode(t, body)
	})
}
