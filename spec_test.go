package tdmd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// specJSONReference is DecodeSpecStrict as encoding/json alone does
// it: the oracle the canonical scanner is held to.
func specJSONReference(r io.Reader) (ProblemSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s ProblemSpec
	if err := dec.Decode(&s); err != nil {
		return ProblemSpec{}, fmt.Errorf("tdmd: decoding spec: %w", err)
	}
	return s, nil
}

// requireSameSpecDecode fails unless DecodeSpecStrict and the
// reference give the same spec or the same error text.
func requireSameSpecDecode(t *testing.T, what string, src func() io.Reader) {
	t.Helper()
	got, gotErr := DecodeSpecStrict(src())
	want, wantErr := specJSONReference(src())
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, encoding/json gives %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %+v, encoding/json gives %+v", what, got, want)
	}
}

// compactSpec is EncodeSpecCompact's output for s.
func compactSpec(t testing.TB, s ProblemSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSpecCompact(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// canonicalSpecs are specs whose compact encoding the scanner must
// claim: nil and empty slices, negative rates and roots, non-ASCII
// names and λ values that encode in exponent form.
var canonicalSpecs = []ProblemSpec{
	{Nodes: []string{"a", "b"}, Edges: [][2]int{{0, 1}}, Flows: []FlowSpec{{Rate: 1, Path: []int{0, 1}}}, Lambda: 0.5, Root: -1},
	{Root: -1},
	{Nodes: []string{}, Edges: [][2]int{}, Flows: []FlowSpec{}, Lambda: 0, Root: 0},
	{Nodes: []string{"x"}, Edges: [][2]int{{0, 0}}, Flows: []FlowSpec{{Rate: -3, Path: []int{0}}, {Rate: 0, Path: []int{}}, {Rate: 7}}, Lambda: 2, Root: 7},
	{Nodes: []string{"Zürich", "東京", "", "a b/c"}, Lambda: 1e-7, Root: -12},
	{Nodes: []string{"n"}, Lambda: 1e21, Root: 123456789012345678},
	{Nodes: []string{"n"}, Lambda: 0.1 + 0.2, Root: -123456789012345678},
}

// nonCanonicalSpecs are documents the scanner must leave to
// encoding/json, which accepts some and rejects others.
var nonCanonicalSpecs = []string{
	`{"edges":[[0,1]],"nodes":["a","b"],"flows":[],"lambda":0.5,"root":-1}`,
	`{"nodes":["a"],"nodes":["b"],"edges":[],"flows":[],"lambda":0.5,"root":-1}`,
	`{"nodes":["a","b"],"edges":[[0,1]],"flows":[{"rate":1,"path":[0,1],"rate":2}],"lambda":0.5,"root":-1}`,
	` {"nodes":["a","b"],"edges":[[0,1]],"flows":[],"lambda":0.5,"root":-1}`,
	`{"nodes": ["a","b"],"edges":[[0,1]],"flows":[],"lambda":0.5,"root":-1}`,
	`{"nodes":["a\"b","c\\d","é","\n"],"edges":[],"flows":[],"lambda":0.5,"root":-1}`,
	`{"nodes":["<a>","a&b"],"edges":[],"flows":[],"lambda":0.5,"root":-1}`,
	"{\"nodes\":[\"\xff\xfe\",\"ok\"],\"edges\":[],\"flows\":[],\"lambda\":0.5,\"root\":-1}",
	"{\"nodes\":[\"\xed\xa0\x80\"],\"edges\":[],\"flows\":[],\"lambda\":0.5,\"root\":-1}",
	"{\"nodes\":[\"tab\there\"],\"edges\":[],\"flows\":[],\"lambda\":0.5,\"root\":-1}",
	`{"nodes":["a"],"edges":[],"flows":[],"lambda":-0,"root":-0}`,
	`{"nodes":["a"],"edges":[],"flows":[{"rate":1e2,"path":[0]}],"lambda":0.5,"root":-1}`,
	`{"nodes":["a"],"edges":[],"flows":[{"rate":1.0,"path":[0]}],"lambda":0.5,"root":-1}`,
	`{"nodes":["a"],"edges":[],"flows":[{"rate":1,"path":[1234567890123456789]}],"lambda":0.5,"root":-1}`,
	`{"nodes":["a"],"edges":[],"flows":[{"rate":9223372036854775808,"path":[0]}],"lambda":0.5,"root":-1}`,
	`{"nodes":["a"],"edges":[],"flows":[],"lambda":.5,"root":-1}`,
	`{"nodes":["a"],"edges":[],"flows":[],"lambda":5e-1,"root":-1}`,
	`{"nodes":["a"],"edges":[],"flows":[],"lambda":1e400,"root":-1}`,
	`{"nodes":["a"],"edges":[],"flows":[],"lambda":1.,"root":-1}`,
	`{"nodes":["a"],"edges":[],"flows":[],"lambda":01,"root":-1}`,
	`{"nodes":null,"edges":null,"flows":[{"rate":1,"path":null}],"lambda":0,"root":-1}`,
	`{"nodes":[null],"edges":[null],"flows":[null],"lambda":0,"root":-1}`,
	`{"nodes":["a"],"edges":[[0]],"flows":[],"lambda":0,"root":-1}`,
	`{"nodes":["a"],"edges":[[0,0,0]],"flows":[],"lambda":0,"root":-1}`,
	`{"nodes":["a","b"],"edges":[[0,1]],"flows":[],"lamda":0.5,"root":-1}`,
	`{"nodes":["a","b"],"edges":[[0,1]],"flows":[],"lambda":0.5,"root":-1,"extra":1}`,
	`{"Nodes":["a","b"],"edges":[[0,1]],"flows":[],"lambda":0.5,"root":-1}`,
	`{"nodes":["a","b"],"edges":[[0,1]],"flows":[],"lambda":0.5,"root":-1}{"trailing":true}`,
	`{"nodes":["a","b"],"edges":[[0,1]],"flows":[],"lambda":0.5,"root":-1} garbage`,
	`{"nodes":["a","b"],"edges":[[0,1]],"flows":[],"lambda":0.5,"root":-1`,
	`{"nodes":["a","b"],"edges":[[0,1]],"flows":[{"rate":1,"path":[0,`,
	`{"nodes":["a","b"],"edges":[[0,-1]],"flows":[{"rate":-1,"path":[-1]}],"lambda":-0.5,"root":-1}`,
	`{"nodes":{},"edges":[],"flows":[],"lambda":0,"root":-1}`,
	`{"nodes":[],"edges":[],"flows":[],"lambda":"0.5","root":-1}`,
	`{"nodes":[],"edges":[],"flows":[],"lambda":0,"root":true}`,
	``,
	`null`,
	`[]`,
}

// TestScanCanonicalSpecClaimsEncoderOutput pins the fast path: every
// compact encoding the scanner is meant for is claimed whole (the
// newline aside) and decodes to the spec that was encoded. The
// non-canonical documents run as FuzzSpecCanonical's seeds.
func TestScanCanonicalSpecClaimsEncoderOutput(t *testing.T) {
	specs := append([]ProblemSpec{specFixture(t, 19)}, canonicalSpecs...)
	for i, spec := range specs {
		doc := compactSpec(t, spec)
		got, n, ok := ScanCanonicalSpec(doc)
		if !ok || n != len(doc)-1 {
			t.Fatalf("spec %d: scanner did not claim %q (ok=%v, n=%d)", i, doc, ok, n)
		}
		if !reflect.DeepEqual(got, spec) {
			t.Fatalf("spec %d: scanned %+v, want %+v", i, got, spec)
		}
	}
}

// TestDecodeSpecStrictReplaysReadError: a read error is reported
// where encoding/json would meet it, and wrapped so errors.Is finds
// it; after a complete document it is never read at all.
func TestDecodeSpecStrictReplaysReadError(t *testing.T) {
	errBoom := errors.New("boom")
	doc := compactSpec(t, canonicalSpecs[0])
	for _, prefix := range [][]byte{doc, doc[:len(doc)/2], nil} {
		src := func() io.Reader { return io.MultiReader(bytes.NewReader(prefix), iotest.ErrReader(errBoom)) }
		requireSameSpecDecode(t, fmt.Sprintf("%q then an error", prefix), src)
		_, err := DecodeSpecStrict(src())
		if complete := len(prefix) == len(doc); complete != (err == nil) || (err != nil && !errors.Is(err, errBoom)) {
			t.Fatalf("%q then an error: got %v", prefix, err)
		}
	}
}

// FuzzSpecCanonical is the differential oracle for the canonical
// scanner: DecodeSpecStrict and a json.Decoder-only decode agree on
// every input — the same ProblemSpec or the same error text.
func FuzzSpecCanonical(f *testing.F) {
	f.Add(compactSpec(f, specFixture(f, 19)))
	for _, spec := range canonicalSpecs {
		f.Add(compactSpec(f, spec))
	}
	for _, doc := range nonCanonicalSpecs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameSpecDecode(t, fmt.Sprintf("%q", data), func() io.Reader { return bytes.NewReader(data) })
	})
}

// TestRootOutOfRange: a root at or beyond |V| is an error naming it
// from the spec builder and from both stream formats, where it used to
// build a problem silently without a tree; a negative root still
// means "no tree".
func TestRootOutOfRange(t *testing.T) {
	spec := ProblemSpec{
		Nodes: []string{"a", "b"}, Edges: [][2]int{{0, 1}, {1, 0}},
		Flows: []FlowSpec{{Rate: 2, Path: []int{1, 0}}}, Lambda: 0.5,
	}
	for _, tc := range []struct {
		root     int
		wantErr  bool
		wantTree bool
	}{
		{root: -1},
		{root: -7},
		{root: 0, wantTree: true},
		{root: 1, wantTree: true},
		{root: 2, wantErr: true},
		{root: 7, wantErr: true},
	} {
		spec.Root = tc.root
		var ndjson bytes.Buffer
		w, err := NewFlowStreamWriter(&ndjson, StreamHeader{Nodes: spec.Nodes, Edges: spec.Edges, Lambda: spec.Lambda, Root: spec.Root})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Add(2, Path{1, 0}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		doc := compactSpec(t, spec)
		for _, build := range []struct {
			name string
			run  func() (*Problem, error)
		}{
			{"spec", spec.Build},
			{"spec stream", func() (*Problem, error) { return DecodeStream(bytes.NewReader(doc)) }},
			{"ndjson stream", func() (*Problem, error) { return DecodeStream(bytes.NewReader(ndjson.Bytes())) }},
		} {
			p, err := build.run()
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("root %d out of range", tc.root)) {
					t.Errorf("%s, root %d: error %v, want one naming the root", build.name, tc.root, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s, root %d: %v", build.name, tc.root, err)
				continue
			}
			if got := p.Tree() != nil; got != tc.wantTree {
				t.Errorf("%s, root %d: tree attached = %v, want %v", build.name, tc.root, got, tc.wantTree)
			}
		}
	}
}
