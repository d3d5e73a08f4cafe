package tdmd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"tdmd/internal/netsim"
	"tdmd/internal/obs"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// Streaming ingestion (DESIGN.md §11). A ProblemBuilder accepts a
// topology declaration followed by any number of flows and assembles
// the netsim arenas directly: every AddFlow interns its path into the
// shared path arena, which holds each distinct path once, so no
// []Flow, no per-flow Path slices and no intermediate ProblemSpec ever
// exist. The streaming decoders
// (ReadStream, DecodeStream) drive a builder from an io.Reader one
// JSON token, or one NDJSON flow line, at a time, which keeps decoder
// working memory independent of the flow count — a million-flow
// problem ingests in the same few kilobytes of transient state as a
// ten-flow one, with the arenas the only O(|F|) allocations. The one
// transient structure that grows, the NDJSON decoder's line table,
// holds one text per distinct path, within the path arena's size plus
// a constant per path.

// Ingest metrics, on the default obs registry next to the solver and
// netsim series. Totals accumulate across ingests; the bytes/flow
// gauge reports the most recent stream (latest-ingest semantics,
// matching tdmd_instance_bytes).
var (
	ingestBytesTotal = obs.NewCounter("tdmd_ingest_bytes_total",
		"input bytes consumed by the streaming problem decoders")
	ingestFlowsTotal = obs.NewCounter("tdmd_ingest_flows_total",
		"flows ingested by the streaming problem decoders")
	ingestBytesPerFlow = obs.NewGauge("tdmd_ingest_bytes_per_flow",
		"input bytes per flow of the most recent streaming ingest")
)

// ProblemBuilder assembles a Problem incrementally: declare the
// topology (AddNode/AddEdge or LoadGML), then stream flows in with
// AddFlow, then Build. The first AddFlow freezes the topology into a
// binary-searchable adjacency index; adding nodes or edges after that
// point is an error, and every flow is validated against the frozen
// index as it arrives, so a bad input line fails at that line.
//
// The builder hands flows to a netsim.Builder, which writes each
// flow's rate and path class straight into the arenas the
// netsim.Instance will own, storing and validating each distinct path
// once. Build hands them over without copying;
// the builder is spent afterwards and every subsequent call errors.
//
// A zero-value-ish builder from NewProblemBuilder has λ = 0 and no
// tree root, matching ProblemSpec defaults; both are settable until
// Build.
type ProblemBuilder struct {
	g      *Graph
	lambda float64
	root   int
	built  bool
	flows  *netsim.Builder
}

// NewProblemBuilder returns an empty builder (λ = 0, no root).
func NewProblemBuilder() *ProblemBuilder {
	g := NewGraph()
	return &ProblemBuilder{g: g, root: -1, flows: netsim.NewBuilder(g)}
}

// AddNode interns a vertex label and returns its dense id: a repeated
// label resolves to the existing vertex instead of adding a new one.
// (The spec decoder bypasses interning — spec node identity is
// positional, see ReadStream.)
func (b *ProblemBuilder) AddNode(name string) (int, error) {
	if err := b.mutable("AddNode"); err != nil {
		return 0, err
	}
	return int(b.g.InternNode(name)), nil
}

// AddEdge adds the directed link from -> to by vertex id.
func (b *ProblemBuilder) AddEdge(from, to int) error {
	if err := b.mutable("AddEdge"); err != nil {
		return err
	}
	if !b.g.Valid(NodeID(from)) || !b.g.Valid(NodeID(to)) {
		return fmt.Errorf("tdmd: builder edge [%d %d] out of range (%d nodes)", from, to, b.g.NumNodes())
	}
	b.g.AddEdge(NodeID(from), NodeID(to))
	return nil
}

// AddBiEdge adds the bidirectional link pair a <-> b by vertex id.
func (b *ProblemBuilder) AddBiEdge(a, c int) error {
	if err := b.AddEdge(a, c); err != nil {
		return err
	}
	return b.AddEdge(c, a)
}

// LoadGML streams an Internet-Topology-Zoo-style GML topology into the
// builder's graph (labels interned, every edge a bidirectional pair).
// Must precede the first AddFlow.
func (b *ProblemBuilder) LoadGML(r io.Reader) error {
	if err := b.mutable("LoadGML"); err != nil {
		return err
	}
	return topology.ReadGMLInto(r, b.g)
}

// SetLambda sets the middlebox's traffic-changing ratio.
func (b *ProblemBuilder) SetLambda(lambda float64) error {
	if err := netsim.CheckLambda(lambda); err != nil {
		return err
	}
	b.lambda = lambda
	return nil
}

// SetRoot declares the tree root (enabling tree algorithms); a
// negative root clears it, and one beyond the last node fails Build.
func (b *ProblemBuilder) SetRoot(root int) { b.root = root }

// Reserve pre-sizes the arenas for the given flow and total-hop
// counts, so a bulk fill of known size never regrows them. Optional:
// without it the arenas grow by doubling. A path arena that repeated
// paths leave mostly unused is trimmed by Build.
func (b *ProblemBuilder) Reserve(flows, pathEntries int) { b.flows.Reserve(flows, pathEntries) }

// NumFlows reports how many flows the builder holds so far.
func (b *ProblemBuilder) NumFlows() int { return b.flows.NumFlows() }

// AddFlow appends one flow given its rate and vertex-id path. The
// first call freezes the topology. A path not seen before is validated
// and lands in the shared path arena; a repeated path costs only its
// flow's rate check. On a validation error the arena is rolled back
// and the builder stays usable, so a decoder can report the bad flow
// and continue or abort as it likes. The returned validation errors
// are traffic.PathError values (errors.As-able via the facade's
// ErrInvalidPath).
//
//tdmd:hot
func (b *ProblemBuilder) AddFlow(rate int, path []int) error {
	if b.built {
		return errBuilderSpent
	}
	return b.flows.AddFlow(rate, path)
}

// AddFlowPath is AddFlow for callers already holding a NodeID path.
//
//tdmd:hot
func (b *ProblemBuilder) AddFlowPath(rate int, path Path) error {
	if b.built {
		return errBuilderSpent
	}
	return b.flows.AddFlowPath(rate, path)
}

// mutable rejects topology mutation after the freeze point.
func (b *ProblemBuilder) mutable(op string) error {
	if b.built {
		return errBuilderSpent
	}
	if b.flows.Frozen() {
		return fmt.Errorf("tdmd: %s after the first AddFlow: the topology is frozen", op)
	}
	return nil
}

var errBuilderSpent = errors.New("tdmd: builder already built; create a new one")

// Build hands the arenas to a netsim instance (no copy; the builder is
// spent) and wraps it as a Problem, attaching the tree view when a
// root was declared — exactly what ProblemSpec.Build produces (a root
// beyond the last node is an error in both), so a builder-fed Problem
// is bit-identical to the spec path on the same input (plans,
// bandwidths, RNG draws).
func (b *ProblemBuilder) Build() (*Problem, error) {
	if b.built {
		return nil, errBuilderSpent
	}
	b.built = true
	if b.root >= b.g.NumNodes() {
		return nil, fmt.Errorf("tdmd: builder root %d out of range (%d nodes)", b.root, b.g.NumNodes())
	}
	inst, err := b.flows.Build(b.lambda)
	if err != nil {
		return nil, err
	}
	p := &Problem{inst: inst, seed: 1}
	if b.root >= 0 {
		t, err := NewTree(b.g, NodeID(b.root))
		if err != nil {
			return nil, fmt.Errorf("tdmd: builder declares root %d but graph is not a tree: %w", b.root, err)
		}
		p.WithTree(t)
	}
	return p, nil
}

// ErrInvalidPath is the sentinel wrapped by every flow-path validation
// error (empty path, repeated vertex, non-adjacent hops); test with
// errors.Is, extract the flow and hop with errors.As on
// *tdmd.PathError.
var ErrInvalidPath = traffic.ErrInvalidPath

// PathError pinpoints an invalid flow path: which flow, which hop,
// and why.
type PathError = traffic.PathError

// StreamFormat identifies the NDJSON flow-stream wire format: a
// header object on the first line carrying the topology, then one
// flow object per line. See DESIGN.md §11 for the grammar.
const StreamFormat = "tdmd-flows/1"

// StreamHeader is the first line of an NDJSON flow stream: the
// topology and scalars, everything except the flows. The header is
// O(|V|+|E|); the flows that follow are never held together in
// memory.
type StreamHeader struct {
	Format string   `json:"format"`
	Nodes  []string `json:"nodes"`
	Edges  [][2]int `json:"edges"`
	Lambda float64  `json:"lambda"`
	Root   int      `json:"root"`
}

// FlowStreamWriter emits the NDJSON flow-stream format: the header on
// creation, one compact flow line per Add, buffered. Close flushes;
// dropping a writer without Close loses the tail of the buffer.
type FlowStreamWriter struct {
	bw    *bufio.Writer
	enc   *json.Encoder
	buf   []int
	flows int
}

// NewFlowStreamWriter writes the stream header and returns a writer
// for the flow lines. The Format field is set by the writer.
func NewFlowStreamWriter(w io.Writer, h StreamHeader) (*FlowStreamWriter, error) {
	h.Format = StreamFormat
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return nil, fmt.Errorf("tdmd: encoding stream header: %w", err)
	}
	return &FlowStreamWriter{bw: bw, enc: enc}, nil
}

// Add writes one flow line. The path is copied into an internal
// scratch buffer, so callers may reuse theirs; the writer allocates
// nothing per flow once the scratch has grown to the longest path.
func (w *FlowStreamWriter) Add(rate int, path Path) error {
	w.buf = w.buf[:0]
	for _, v := range path {
		w.buf = append(w.buf, int(v))
	}
	if err := w.enc.Encode(FlowSpec{Rate: rate, Path: w.buf}); err != nil {
		return fmt.Errorf("tdmd: encoding flow %d: %w", w.flows, err)
	}
	w.flows++
	return nil
}

// Flows reports how many flow lines have been written.
func (w *FlowStreamWriter) Flows() int { return w.flows }

// Close flushes the buffered tail.
func (w *FlowStreamWriter) Close() error { return w.bw.Flush() }

// countingReader counts the bytes the decoder actually pulls from the
// source, feeding the ingest metrics.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// DecodeStream reads a problem from r with decoder working memory
// independent of the flow count and returns it built. Both wire
// formats are accepted and distinguished by their leading object: a
// ProblemSpec document (flows decoded one at a time, never as a
// []FlowSpec) or an NDJSON flow stream (StreamHeader line, then one
// flow per line). Flow lines
// in the exact shape FlowStreamWriter writes are scanned without
// encoding/json, and a line that repeats an earlier line's path byte
// for byte is known by those bytes, through a table the decode drops
// when it returns: only its rate is parsed. Any other line, and the
// rest of the stream after it, is decoded by encoding/json, so the
// accepted inputs and the error texts are the same either way.
// Unknown fields are rejected with an error naming the field.
func DecodeStream(r io.Reader) (*Problem, error) {
	b := NewProblemBuilder()
	if err := b.ReadStream(r); err != nil {
		return nil, err
	}
	return b.Build()
}

// ReadStream feeds the builder from a spec document or NDJSON flow
// stream (see DecodeStream). In the spec format, "nodes" and "edges"
// must precede "flows" — the builder freezes the topology at the
// first flow; our encoders always emit that order. Scalars ("lambda",
// "root") may appear anywhere. A read error from r comes back
// wrapped, so errors.As still finds it (an *http.MaxBytesError, say).
func (b *ProblemBuilder) ReadStream(r io.Reader) error {
	cr := &countingReader{r: r}
	dec := json.NewDecoder(cr)
	dec.DisallowUnknownFields()
	flows, err := b.readStream(dec, cr)
	if err != nil {
		return err
	}
	ingestBytesTotal.Add(cr.n)
	ingestFlowsTotal.Add(int64(flows))
	if flows > 0 {
		ingestBytesPerFlow.Set(cr.n / int64(flows))
	}
	return nil
}

// readStream decodes the leading object key by key: "nodes" and
// "edges" with one Decode each and "flows" one element at a time. Each
// edge is range-checked against the vertices named before it, and the
// edges of every "edges" key are gathered and added by one
// graph.AddEdges, as in ProblemSpec.Build, before the first flow or at
// the end. So however many topology keys a document repeats, the
// topology costs time linear in its size. For an NDJSON stream it then
// reads the flow lines from what dec has buffered followed by the rest
// of src.
func (b *ProblemBuilder) readStream(dec *json.Decoder, src io.Reader) (flows int, err error) {
	if err := expectDelim(dec, '{'); err != nil {
		return 0, fmt.Errorf("tdmd: stream: %w", err)
	}
	var format string
	var fs FlowSpec
	var edges [][2]int // range-checked, not yet added
	addEdges := func() {
		b.g.AddEdges(edges) // cannot fail: each edge was checked
		edges = nil
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return flows, fmt.Errorf("tdmd: stream: %w", err)
		}
		key, ok := tok.(string)
		if !ok {
			return flows, fmt.Errorf("tdmd: stream: object key expected, got %v", tok)
		}
		switch key {
		case "format":
			if err := decodeScalar(dec, &format); err != nil {
				return flows, err
			}
		case "nodes":
			// Positional, like ProblemSpec.Build: vertex i is the i-th
			// name, even under duplicate labels (edges are index pairs).
			names, err := decodeList(dec, (*specScanner).nodes)
			if err != nil {
				return flows, fmt.Errorf("tdmd: stream: %w", err)
			}
			if len(names) == 0 {
				continue
			}
			if err := b.mutable("nodes"); err != nil {
				return flows, err
			}
			b.g.Grow(len(names))
			for _, name := range names {
				b.g.AddNode(name)
			}
		case "edges":
			more, err := decodeList(dec, (*specScanner).edges)
			if err != nil {
				return flows, fmt.Errorf("tdmd: stream: decoding edges: %w", err)
			}
			if len(more) == 0 {
				continue
			}
			if err := b.mutable("AddEdge"); err != nil {
				return flows, err
			}
			n := b.g.NumNodes()
			for _, e := range more {
				if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
					return flows, fmt.Errorf("tdmd: builder edge %v out of range (%d nodes)", e, n)
				}
			}
			edges = append(edges, more...)
		case "flows":
			err := decodeArray(dec, func() error {
				fs.Rate, fs.Path = 0, fs.Path[:0]
				if err := dec.Decode(&fs); err != nil {
					return fmt.Errorf("tdmd: stream: decoding flow %d: %w", flows, err)
				}
				if flows == 0 {
					addEdges() // the first flow freezes the topology
				}
				if err := b.AddFlow(fs.Rate, fs.Path); err != nil {
					return err
				}
				flows++
				return nil
			})
			if err != nil {
				return flows, err
			}
		case "lambda":
			var l float64
			if err := decodeScalar(dec, &l); err != nil {
				return flows, err
			}
			if err := b.SetLambda(l); err != nil {
				return flows, err
			}
		case "root":
			var root int
			if err := decodeScalar(dec, &root); err != nil {
				return flows, err
			}
			b.SetRoot(root)
		default:
			return flows, fmt.Errorf("tdmd: stream: unknown field %q", key)
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return flows, fmt.Errorf("tdmd: stream: %w", err)
	}
	addEdges()
	if format == "" {
		return flows, nil // spec document: done
	}
	if format != StreamFormat {
		return flows, fmt.Errorf("tdmd: stream: unsupported format %q (want %q)", format, StreamFormat)
	}
	return b.readFlowLines(io.MultiReader(dec.Buffered(), src), fs, flows, new(lineTable))
}

// flowLineBuffer is readFlowLines' read buffer size, so also the
// longest flow line it scans in place. On a socket each fill is a read
// call: over loopback TCP, an 8.9 MB, 200k-flow stream took 165 reads
// at 64 KiB and 2,180 at bufio's 4 KiB default.
const flowLineBuffer = 64 << 10

// readFlowLines ingests the NDJSON tail, one line at a time, into a
// reused FlowSpec, so working memory stays O(longest line) plus the
// line table. Whitespace-only lines (the first is the header's own
// newline) are skipped. A line that opens with a canonical
// `{"rate":R` and whose remaining bytes equal a text in lines repeats
// that text's path: it joins the path's class with only its rate
// checked, and its hops are never parsed. Any other line in the
// canonical shape FlowStreamWriter writes is parsed in place by
// scanFlowPath and added through AddFlow, and its text after the rate
// then enters lines with the class the builder gave its path. The
// first line that is anything else — or longer than the read buffer,
// or cut short by a read error — is handed, with everything after it,
// to readFlowValues, so every non-canonical input is accepted or
// rejected exactly as encoding/json decides. flows counts the flows
// read so far.
func (b *ProblemBuilder) readFlowLines(r io.Reader, fs FlowSpec, flows int, lines *lineTable) (int, error) {
	br := bufio.NewReaderSize(r, flowLineBuffer)
	//tdmd:hot
	for {
		line, err := br.ReadSlice('\n')
		if isJSONSpace(line) {
			switch err {
			case nil:
				continue
			case io.EOF:
				return flows, nil
			}
		}
		rate, at, ok := scanFlowRate(line)
		if ok {
			if class := lines.find(line[at:]); class >= 0 {
				if err := b.flows.AddClassFlow(rate, class); err != nil {
					return flows, err
				}
				flows++
				continue
			}
			fs.Rate = rate
			ok = scanFlowPath(line[at:], &fs)
		}
		if !ok {
			// ReadSlice hands back a read error only once; replay it
			// after the line so the decoder reports it at the same point.
			rest := io.Reader(br)
			if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
				rest = errReader{err}
			}
			return b.readFlowValues(io.MultiReader(bytes.NewReader(line), rest), fs, flows)
		}
		if err := b.AddFlow(fs.Rate, fs.Path); err != nil {
			return flows, err
		}
		lines.add(line[at:], len(fs.Path), b.flows.FlowClass(b.flows.NumFlows()-1))
		flows++
	}
}

// readFlowValues is the general NDJSON tail: one encoding/json value
// per flow until EOF, with unknown fields rejected. flows is the
// index of the first flow it reads, so its errors count from there.
func (b *ProblemBuilder) readFlowValues(r io.Reader, fs FlowSpec, flows int) (int, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	for {
		fs.Rate, fs.Path = 0, fs.Path[:0]
		if err := dec.Decode(&fs); err != nil {
			if errors.Is(err, io.EOF) {
				return flows, nil
			}
			return flows, fmt.Errorf("tdmd: stream: decoding flow %d: %w", flows, err)
		}
		if err := b.AddFlow(fs.Rate, fs.Path); err != nil {
			return flows, err
		}
		flows++
	}
}

// scanFlowRate parses the `{"rate":R` that opens a canonical flow
// line and returns R with the index just past it. R is unsigned, at
// most 18 digits long and has no leading zero.
//
//tdmd:hot
func scanFlowRate(line []byte) (rate, next int, ok bool) {
	if !hasLiteral(line, 0, `{"rate":`) {
		return 0, 0, false
	}
	return scanJSONUint(line, len(`{"rate":`))
}

// scanFlowPath parses the rest of a canonical flow line into fs.Path,
// reusing it: exactly the bytes FlowStreamWriter writes after the
// rate, `,"path":[v1,...,vn]}` and a newline, where every hop is what
// scanJSONUint accepts. With scanFlowRate it claims exactly the lines
// {"rate":R,"path":[v1,...,vn]} that FlowStreamWriter writes and
// reports false for anything else, so it never claims a line that
// encoding/json would decode to a different flow or reject.
//
//tdmd:hot
func scanFlowPath(tail []byte, fs *FlowSpec) bool {
	if !hasLiteral(tail, 0, `,"path":[`) {
		return false
	}
	i := len(`,"path":[`)
	fs.Path = fs.Path[:0]
	for {
		v, next, ok := scanJSONUint(tail, i)
		if !ok {
			return false
		}
		fs.Path = append(fs.Path, v)
		i = next
		if i < len(tail) && tail[i] == ',' {
			i++
			continue
		}
		return string(tail[i:]) == "]}\n"
	}
}

// lineTable maps the text of canonical flow lines after the rate,
// `,"path":[v1,...,vn]}` and the newline, to the path class the
// builder gave that path. Only scanFlowPath's canonical form enters,
// one text per path, so a text in the table is a complete canonical
// line's and a byte-equal tail names the same path. It is an
// open-addressing table of int32 entry ids over one byte arena, with
// no pointers to scan. A text enters only after the builder accepted
// its path, and only if it is at most the path's span of the builder's
// path arena (hopBytes per hop) plus lineSyntax bytes, so the table's
// text never outgrows the path arena by more than lineSyntax bytes per
// class. A decode builds one table and drops it when it returns.
type lineTable struct {
	seed    maphash.Seed
	slots   []int32 // power-of-two length ≥ 2× the entries; 0 empty, else 1 + entry
	entries []lineEntry
	text    []byte // entry e's text ends at entries[e].end, where e−1's ends
}

// lineEntry is one stored text's end offset and path class.
type lineEntry struct{ end, class int32 }

const (
	// hopBytes is what one hop takes in the builder's path arena (a
	// NodeID is an int).
	hopBytes = strconv.IntSize / 8
	// lineSyntax is the text's fixed part, `,"path":[` and `]}\n`;
	// each hop adds its digits and at most one comma.
	lineSyntax = len(`,"path":[`) + len("]}\n")
)

// find returns the class stored for text, or -1.
//
//tdmd:hot
func (t *lineTable) find(text []byte) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for slot := maphash.Bytes(t.seed, text) & mask; ; slot = (slot + 1) & mask {
		e := t.slots[slot] - 1
		if e < 0 {
			return -1
		}
		if bytes.Equal(t.textOf(e), text) {
			return int(t.entries[e].class)
		}
	}
}

// textOf returns entry e's text.
func (t *lineTable) textOf(e int32) []byte {
	start := int32(0)
	if e > 0 {
		start = t.entries[e-1].end
	}
	return t.text[start:t.entries[e].end]
}

// add stores text, which find does not know, for the class of a path
// of hops hops. A text longer than the memory bound allows, or one
// that would take the arena past int32 offsets, is left out: its
// lines are parsed each time they occur.
func (t *lineTable) add(text []byte, hops, class int) {
	if len(text) > hops*hopBytes+lineSyntax || len(t.text)+len(text) > math.MaxInt32 {
		return
	}
	if 2*(len(t.entries)+1) > len(t.slots) {
		if len(t.slots) == 0 {
			t.seed = maphash.MakeSeed()
		}
		t.slots = make([]int32, max(64, 2*len(t.slots)))
		for e := range t.entries {
			t.insert(int32(e))
		}
	}
	t.text = append(t.text, text...)
	t.entries = append(t.entries, lineEntry{end: int32(len(t.text)), class: int32(class)})
	t.insert(int32(len(t.entries) - 1))
}

// insert puts entry e into the first free slot of its probe sequence.
func (t *lineTable) insert(e int32) {
	mask := uint64(len(t.slots) - 1)
	slot := maphash.Bytes(t.seed, t.textOf(e)) & mask
	for t.slots[slot] != 0 {
		slot = (slot + 1) & mask
	}
	t.slots[slot] = e + 1
}

// ScanCanonicalSpec parses the canonical spec document at the start of
// data without encoding/json and returns it with the document's
// length. The canonical document is what EncodeSpecCompact writes,
// less its newline:
//
//	{"nodes":N,"edges":E,"flows":F,"lambda":L,"root":R}
//
// with the keys in that order and no whitespace. N is null or an array
// of strings with no escape, control character or invalid UTF-8; E is
// null or an array of [u,v] pairs; F is null or an array of
// {"rate":R,"path":P} objects, P null or an array of vertices. L is a
// JSON number that strconv.ParseFloat accepts; every other number is
// an integer: an optional minus sign, then at most 18 digits with no
// leading zero. ok is false for anything else, and the caller then
// decodes the same bytes with encoding/json: everything the scanner
// accepts, encoding/json decodes to the same ProblemSpec
// (FuzzSpecCanonical checks this). Bytes after the document are not
// examined.
func ScanCanonicalSpec(data []byte) (s ProblemSpec, n int, ok bool) {
	sc := specScanner{data: data}
	if !sc.lit(`{"nodes":`) {
		return ProblemSpec{}, 0, false
	}
	if s.Nodes, ok = sc.nodes(); !ok || !sc.lit(`,"edges":`) {
		return ProblemSpec{}, 0, false
	}
	if s.Edges, ok = sc.edges(); !ok || !sc.lit(`,"flows":`) {
		return ProblemSpec{}, 0, false
	}
	// Every flow opens one brace. Every hop of a path is preceded by a
	// comma, the first by the one before "path", and the commas after
	// the flows and between them outnumber the braces. So these counts
	// over the rest of data bound both slices, and neither regrows on a
	// canonical document. The paths are carved from hops with full slice
	// expressions, so each stays its own slice.
	rest := data[sc.i:]
	braces := bytes.Count(rest, []byte("{"))
	s.Flows = make([]FlowSpec, 0, braces)
	hops := make([]int, 0, max(bytes.Count(rest, []byte(","))-braces, 1))
	hop := func() bool {
		var v int
		ok := sc.int(&v)
		hops = append(hops, v)
		return ok
	}
	null, ok := sc.list(func() bool {
		var f FlowSpec
		if !sc.lit(`{"rate":`) || !sc.int(&f.Rate) || !sc.lit(`,"path":`) {
			return false
		}
		from := len(hops)
		null, ok := sc.list(hop)
		if !ok || !sc.lit("}") {
			return false
		}
		if !null {
			f.Path = hops[from:len(hops):len(hops)]
		}
		s.Flows = append(s.Flows, f)
		return true
	})
	if !ok || !sc.lit(`,"lambda":`) || !sc.number(&s.Lambda) || !sc.lit(`,"root":`) || !sc.int(&s.Root) || !sc.lit("}") {
		return ProblemSpec{}, 0, false
	}
	if null {
		s.Flows = nil
	}
	return s, sc.i, true
}

// specScanner is ScanCanonicalSpec's cursor over the document. The
// stream decoder also runs its nodes and edges on the raw values of
// those keys.
type specScanner struct {
	data []byte
	i    int
}

// nodes consumes a node list: null (nil) or an array of strings that
// str accepts. One string holds every name; the slice views into it.
func (sc *specScanner) nodes() ([]string, bool) {
	start, names := sc.i, 0
	null, ok := sc.list(func() bool { names++; return sc.str() })
	if !ok || null {
		return nil, ok
	}
	return splitNames(string(sc.data[start:sc.i]), make([]string, 0, names)), true
}

// edges consumes an edge list: null (nil) or an array of [u,v]
// integer pairs.
func (sc *specScanner) edges() ([][2]int, bool) {
	// Each edge opens one bracket before the flows key, which ends the
	// list in a canonical document.
	list := sc.data[sc.i:]
	if end := bytes.Index(list, []byte(`,"flows":`)); end >= 0 {
		list = list[:end]
	}
	edges := make([][2]int, 0, max(bytes.Count(list, []byte("["))-1, 0))
	null, ok := sc.list(func() bool {
		var e [2]int
		if !sc.lit("[") || !sc.int(&e[0]) || !sc.lit(",") || !sc.int(&e[1]) || !sc.lit("]") {
			return false
		}
		edges = append(edges, e)
		return true
	})
	if !ok || null {
		return nil, ok
	}
	return edges, true
}

// lit consumes lit if the input continues with it.
//
//tdmd:hot
func (sc *specScanner) lit(lit string) bool {
	if !hasLiteral(sc.data, sc.i, lit) {
		return false
	}
	sc.i += len(lit)
	return true
}

// list consumes null, or an array whose elements elem consumes, and
// reports which it was.
//
//tdmd:hot
func (sc *specScanner) list(elem func() bool) (null, ok bool) {
	if sc.lit("null") {
		return true, true
	}
	if !sc.lit("[") {
		return false, false
	}
	if sc.lit("]") {
		return false, true
	}
	for elem() {
		if !sc.lit(",") {
			return false, sc.lit("]")
		}
	}
	return false, false
}

// int consumes a canonical integer into v: an optional minus sign,
// then what scanJSONUint accepts.
//
//tdmd:hot
func (sc *specScanner) int(v *int) bool {
	neg := sc.lit("-")
	u, next, ok := scanJSONUint(sc.data, sc.i)
	if !ok {
		return false
	}
	if sc.i, *v = next, u; neg {
		*v = -u
	}
	return true
}

// number consumes a JSON number into v, converted as encoding/json
// converts one for a float64; a number out of float64 range is refused.
//
//tdmd:hot
func (sc *specScanner) number(v *float64) bool {
	d, i := sc.data, sc.i
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		i = skipDigits(d, i)
	default:
		return false
	}
	if i < len(d) && d[i] == '.' {
		j := skipDigits(d, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := skipDigits(d, i)
		if j == i {
			return false
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(d[sc.i:i]), 64)
	if err != nil {
		return false
	}
	sc.i, *v = i, f
	return true
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(d []byte, i int) int {
	for i < len(d) && d[i] >= '0' && d[i] <= '9' {
		i++
	}
	return i
}

// str consumes a string that encoding/json copies through unchanged:
// valid UTF-8 with no quote, backslash or control character.
//
//tdmd:hot
func (sc *specScanner) str() bool {
	if !sc.lit(`"`) {
		return false
	}
	d, start, ascii := sc.data, sc.i, true
	for ; sc.i < len(d) && d[sc.i] != '"'; sc.i++ {
		if c := d[sc.i]; c < 0x20 || c == '\\' {
			return false
		} else if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	return (ascii || utf8.Valid(d[start:sc.i])) && sc.lit(`"`)
}

// splitNames appends the strings of a node array that str accepted,
// as substrings of list, to dst.
//
//tdmd:hot
func splitNames(list string, dst []string) []string {
	for i := 1; i < len(list)-1; i++ { // inside the brackets
		end := i + 1 + strings.IndexByte(list[i+1:], '"')
		dst = append(dst, list[i+1:end])
		i = end + 1 // the comma, or the closing bracket
	}
	return dst
}

// scanJSONUint parses the unsigned JSON integer starting at line[i]
// and returns it with the index just past it. It refuses an empty
// number, a leading zero, more than 18 digits (so the accumulator
// cannot wrap) and a value beyond int.
func scanJSONUint(line []byte, i int) (v int, next int, ok bool) {
	start := i
	var n uint64
	for ; i < len(line) && line[i] >= '0' && line[i] <= '9'; i++ {
		n = n*10 + uint64(line[i]-'0')
	}
	digits := i - start
	if digits == 0 || digits > 18 || (digits > 1 && line[start] == '0') || n > math.MaxInt {
		return 0, i, false
	}
	return int(n), i, true
}

// hasLiteral reports whether line[i:] starts with lit.
func hasLiteral(line []byte, i int, lit string) bool {
	return len(line)-i >= len(lit) && string(line[i:i+len(lit)]) == lit
}

// isJSONSpace reports whether line holds only JSON whitespace.
func isJSONSpace(line []byte) bool {
	for _, c := range line {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// errReader returns err from every Read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// expectDelim consumes one token and requires it to be the delimiter.
func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("expected %q, got %v", want.String(), tok)
	}
	return nil
}

// decodeArray consumes a JSON array (or null, treated as empty),
// invoking elem once per element. elem must consume exactly one value
// from the decoder.
func decodeArray(dec *json.Decoder, elem func() error) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("tdmd: stream: %w", err)
	}
	if tok == nil {
		return nil // JSON null: empty list
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("tdmd: stream: expected array, got %v", tok)
	}
	for dec.More() {
		if err := elem(); err != nil {
			return err
		}
	}
	if err := expectDelim(dec, ']'); err != nil {
		return fmt.Errorf("tdmd: stream: %w", err)
	}
	return nil
}

// decodeList decodes the next value as a T: with scan when it takes
// the whole value, otherwise with encoding/json on the same bytes.
// The value is read whole first, as a direct Decode into a T reads
// it, so read and syntax errors come at the same point either way.
func decodeList[T any](dec *json.Decoder, scan func(*specScanner) (T, bool)) (T, error) {
	var raw json.RawMessage
	var v T
	if err := dec.Decode(&raw); err != nil {
		return v, err
	}
	sc := specScanner{data: raw}
	if v, ok := scan(&sc); ok && sc.i == len(raw) {
		return v, nil
	}
	err := json.Unmarshal(raw, &v)
	return v, err
}

// decodeScalar decodes one scalar value into v.
func decodeScalar[T any](dec *json.Decoder, v *T) error {
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("tdmd: stream: %w", err)
	}
	return nil
}
