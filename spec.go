package tdmd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// ProblemSpec is the JSON interchange format consumed by cmd/tdmd and
// produced by cmd/topogen: a self-contained description of a TDMD
// instance.
type ProblemSpec struct {
	// Nodes lists vertex names; vertex i gets NodeID i.
	Nodes []string `json:"nodes"`
	// Edges lists directed links as [from, to] index pairs.
	Edges [][2]int `json:"edges"`
	// Flows lists the workload.
	Flows []FlowSpec `json:"flows"`
	// Lambda is the middlebox's traffic-changing ratio.
	Lambda float64 `json:"lambda"`
	// Root, if >= 0, declares the tree root enabling tree algorithms.
	Root int `json:"root"`
}

// FlowSpec describes one flow by rate and vertex-index path.
type FlowSpec struct {
	Rate int   `json:"rate"`
	Path []int `json:"path"`
}

// EncodeSpec writes a spec as indented JSON.
func EncodeSpec(w io.Writer, s ProblemSpec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// EncodeSpecCompact writes a spec as single-line JSON with no
// indentation — byte-for-byte the same document modulo whitespace,
// at roughly half the size on multi-million-flow specs. Its output is
// the canonical form: ScanCanonicalSpec (and so DecodeSpecStrict and
// the service's /api/solve decoder) parses these bytes without
// encoding/json, unless a node name needs an escape. cmd/topogen
// switches to it above a flow-count threshold.
func EncodeSpecCompact(w io.Writer, s ProblemSpec) error {
	return json.NewEncoder(w).Encode(s)
}

// DecodeSpecStrict reads r to EOF as one JSON spec and rejects
// unknown fields with an error naming the offending field. Input that
// starts with the canonical document (EncodeSpecCompact's bytes) is
// parsed by ScanCanonicalSpec; anything else, or input cut short by a
// read error, goes to encoding/json with the same bytes and then the
// same error, so the accepted inputs, the decoded spec and the error
// texts do not depend on which path ran. As with encoding/json, bytes
// after the document are ignored.
func DecodeSpecStrict(r io.Reader) (ProblemSpec, error) {
	data, err := io.ReadAll(r)
	if err == nil {
		if s, _, ok := ScanCanonicalSpec(data); ok {
			return s, nil
		}
	}
	src := io.Reader(bytes.NewReader(data))
	if err != nil {
		src = io.MultiReader(src, errReader{err})
	}
	return decodeSpec(src)
}

// decodeSpec is the encoding/json spec decode, strict about fields.
func decodeSpec(r io.Reader) (ProblemSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s ProblemSpec
	if err := dec.Decode(&s); err != nil {
		// encoding/json reports unknown fields as `json: unknown field
		// "lamda"`; the wrap keeps that field name front and center.
		return ProblemSpec{}, fmt.Errorf("tdmd: decoding spec: %w", err)
	}
	return s, nil
}

// Build materializes the spec into a Problem (tree attached when Root
// is set) ready to Solve. A root beyond the last node is an error; a
// negative one declares no tree. Vertex i is the i-th name, even under
// duplicate labels. The adjacency lists and the builder's arenas are
// sized from the spec before they are filled.
func (s ProblemSpec) Build() (*Problem, error) {
	if s.Root >= len(s.Nodes) {
		return nil, fmt.Errorf("tdmd: spec root %d out of range (%d nodes)", s.Root, len(s.Nodes))
	}
	n := len(s.Nodes)
	b := NewProblemBuilder()
	b.g.Grow(n)
	for _, name := range s.Nodes {
		b.g.AddNode(name)
	}
	// Size every adjacency list exactly before filling it: appending
	// edge by edge would regrow each list a few times.
	deg := make([]int32, 2*n) // out-degrees, then in-degrees
	for _, e := range s.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("tdmd: spec edge %v out of range", e)
		}
		deg[e[0]]++
		deg[n+e[1]]++
	}
	b.g.ReserveEdges(deg[:n], deg[n:])
	for _, e := range s.Edges {
		b.g.AddEdge(NodeID(e[0]), NodeID(e[1]))
	}
	hops := 0
	for i, fs := range s.Flows {
		for _, v := range fs.Path {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("tdmd: spec flow %d path vertex %d out of range", i, v)
			}
		}
		hops += len(fs.Path)
	}
	b.Reserve(len(s.Flows), hops)
	for _, fs := range s.Flows {
		if err := b.AddFlow(fs.Rate, fs.Path); err != nil {
			return nil, err
		}
	}
	// Unchecked here: netsim rejects a negative λ with NewProblem's text.
	b.lambda = s.Lambda
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	if s.Root >= 0 {
		t, err := NewTree(b.g, NodeID(s.Root))
		if err != nil {
			return nil, fmt.Errorf("tdmd: spec declares root %d but graph is not a tree: %w", s.Root, err)
		}
		p.WithTree(t)
	}
	return p, nil
}

// PlanSpec is the JSON interchange form of a deployment plan, so
// solved plans can be saved, audited, and re-evaluated later
// (cmd/tdmd -saveplan / -evalplan).
type PlanSpec struct {
	// Vertices lists the middlebox-hosting vertex IDs.
	Vertices []int `json:"vertices"`
}

// EncodePlan writes a plan as indented JSON.
func EncodePlan(w io.Writer, p Plan) error {
	spec := PlanSpec{}
	for _, v := range p.Vertices() {
		spec.Vertices = append(spec.Vertices, int(v))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// DecodePlan reads a JSON plan and validates it against g. Unknown
// fields are rejected, so a misspelled key cannot decode as the empty
// plan.
func DecodePlan(r io.Reader, g *Graph) (Plan, error) {
	var spec PlanSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Plan{}, fmt.Errorf("tdmd: decoding plan: %w", err)
	}
	p := NewPlan()
	for _, v := range spec.Vertices {
		if v < 0 || v >= g.NumNodes() {
			return Plan{}, fmt.Errorf("tdmd: plan vertex %d outside graph (n=%d)", v, g.NumNodes())
		}
		p.Add(NodeID(v))
	}
	return p, nil
}

// SpecFromProblem converts a built graph + flows back into a spec
// (Root = -1; set it manually for tree instances).
func SpecFromProblem(g *Graph, flows []Flow, lambda float64) ProblemSpec {
	s := ProblemSpec{Lambda: lambda, Root: -1}
	for _, v := range g.Nodes() {
		s.Nodes = append(s.Nodes, g.Name(v))
	}
	for _, e := range g.Edges() {
		s.Edges = append(s.Edges, [2]int{int(e.From), int(e.To)})
	}
	for _, f := range flows {
		fs := FlowSpec{Rate: f.Rate}
		for _, v := range f.Path {
			fs.Path = append(fs.Path, int(v))
		}
		s.Flows = append(s.Flows, fs)
	}
	return s
}
