package tdmd

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Ingestion benchmarks (the BENCH_ingest.json suite, run via
// scripts/bench.sh ingest): the streaming NDJSON decoder, the strict
// spec-document path, and the bare builder fill, all over the same
// workload so the JSON overhead is directly readable. Each JSON
// benchmark reports bytes/flow — the on-disk cost of one flow in that
// encoding — which benchsnap records and gates alongside allocs/op.

// ingestTopology is the shared benchmark network: a 200-vertex
// connected random graph with hub destinations.
func ingestTopology() (*Graph, []NodeID) {
	g := GeneralRandom(200, 0.5, 7)
	return g, []NodeID{0, 1, 2}
}

// ingestStreamBytes renders an NDJSON flow stream with the given
// workload size and returns the encoded bytes and flow count.
func ingestStreamBytes(tb testing.TB, maxFlows int) ([]byte, int) {
	tb.Helper()
	g, dsts := ingestTopology()
	var buf bytes.Buffer
	w, err := NewFlowStreamWriter(&buf, ingestHeader(g))
	if err != nil {
		tb.Fatal(err)
	}
	n, err := GenerateGeneralFlows(g, dsts, ingestGenConfig(maxFlows), func(f Flow) error {
		return w.Add(f.Rate, f.Path)
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	if n != maxFlows {
		tb.Fatalf("generated %d flows, want %d", n, maxFlows)
	}
	return buf.Bytes(), n
}

// ingestSpecBytes renders the equivalent workload as a compact spec
// document.
func ingestSpecBytes(tb testing.TB, maxFlows int) ([]byte, int) {
	tb.Helper()
	g, dsts := ingestTopology()
	flows := GeneralFlows(g, dsts, ingestGenConfig(maxFlows))
	if len(flows) != maxFlows {
		tb.Fatalf("generated %d flows, want %d", len(flows), maxFlows)
	}
	var buf bytes.Buffer
	if err := EncodeSpecCompact(&buf, SpecFromProblem(g, flows, 0.5)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), len(flows)
}

// ingestGenConfig asks the generator for exactly maxFlows flows: the
// density target is set beyond reach so MaxFlows is the stop.
func ingestGenConfig(maxFlows int) GenConfig {
	return GenConfig{Density: 1e12, Seed: 7, MaxFlows: maxFlows}
}

func ingestHeader(g *Graph) StreamHeader {
	h := StreamHeader{Lambda: 0.5, Root: -1}
	for _, v := range g.Nodes() {
		h.Nodes = append(h.Nodes, g.Name(v))
	}
	for _, e := range g.Edges() {
		h.Edges = append(h.Edges, [2]int{int(e.From), int(e.To)})
	}
	return h
}

const ingestBenchFlows = 20000

func BenchmarkIngestStream(b *testing.B) {
	data, flows := ingestStreamBytes(b, ingestBenchFlows)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := DecodeStream(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if p.Instance().NumFlows() != flows {
			b.Fatalf("decoded %d flows", p.Instance().NumFlows())
		}
	}
	// After the loop: ResetTimer deletes user-reported metrics.
	b.ReportMetric(float64(len(data))/float64(flows), "bytes/flow")
}

func BenchmarkIngestSpec(b *testing.B) {
	data, flows := ingestSpecBytes(b, ingestBenchFlows)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := DecodeSpecStrict(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		p, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		if p.Instance().NumFlows() != flows {
			b.Fatalf("decoded %d flows", p.Instance().NumFlows())
		}
	}
	b.ReportMetric(float64(len(data))/float64(flows), "bytes/flow")
}

// BenchmarkIngestBuilder is the JSON-free floor: the same workload fed
// straight into the builder arenas. The gap to BenchmarkIngestStream
// is pure decode cost.
func BenchmarkIngestBuilder(b *testing.B) {
	g, dsts := ingestTopology()
	flows := GeneralFlows(g, dsts, ingestGenConfig(ingestBenchFlows))
	header := ingestHeader(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewProblemBuilder()
		for _, name := range header.Nodes {
			if _, err := bld.AddNode(name); err != nil {
				b.Fatal(err)
			}
		}
		for _, e := range header.Edges {
			if err := bld.AddEdge(e[0], e[1]); err != nil {
				b.Fatal(err)
			}
		}
		if err := bld.SetLambda(0.5); err != nil {
			b.Fatal(err)
		}
		bld.Reserve(len(flows), 0)
		for _, f := range flows {
			if err := bld.AddFlowPath(f.Rate, f.Path); err != nil {
				b.Fatal(err)
			}
		}
		p, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		if p.Instance().NumFlows() != len(flows) {
			b.Fatalf("built %d flows", p.Instance().NumFlows())
		}
	}
}

// BenchmarkIngestStreamMillion is the scale row: a million-flow NDJSON
// stream decoded end to end. Its B/op in BENCH_ingest.json is the
// recorded memory budget for million-flow ingestion; bytes/flow gates
// the wire format's per-flow cost at scale.
func BenchmarkIngestStreamMillion(b *testing.B) {
	if testing.Short() {
		b.Skip("million-flow fixture generation in -short mode")
	}
	data, flows := ingestStreamBytes(b, 1_000_000)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := DecodeStream(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if p.Instance().NumFlows() != flows {
			b.Fatalf("decoded %d flows", p.Instance().NumFlows())
		}
	}
	b.ReportMetric(float64(len(data))/float64(flows), "bytes/flow")
}

// TestScaleMillionFlows is the end-to-end scale acceptance run: a
// million-flow problem is streamed to disk, ingested back through the
// streaming decoder, and solved with the lazy-greedy solver.
// It is opt-in (TDMD_SCALE=1) because it allocates hundreds of
// megabytes and runs for tens of seconds under -race; scripts/bench.sh
// ingest runs it before the benchmark suite.
func TestScaleMillionFlows(t *testing.T) {
	if os.Getenv("TDMD_SCALE") == "" {
		t.Skip("set TDMD_SCALE=1 to run the million-flow scale test")
	}
	const wantFlows = 1_000_000
	path := filepath.Join(t.TempDir(), "million.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	g, dsts := ingestTopology()
	w, err := NewFlowStreamWriter(f, ingestHeader(g))
	if err != nil {
		t.Fatal(err)
	}
	n, err := GenerateGeneralFlows(g, dsts, ingestGenConfig(wantFlows), func(fl Flow) error {
		return w.Add(fl.Rate, fl.Path)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n != wantFlows {
		t.Fatalf("generated %d flows, want %d", n, wantFlows)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := DecodeStream(bufio.NewReaderSize(in, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	inst := p.Instance()
	if inst.NumFlows() != wantFlows {
		t.Fatalf("decoded %d flows, want %d", inst.NumFlows(), wantFlows)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	instBytes, arenaBytes := inst.MemoryFootprint()
	footprint := instBytes + arenaBytes
	t.Logf("stream: %d bytes on disk (%.1f bytes/flow)", fi.Size(), float64(fi.Size())/float64(wantFlows))
	t.Logf("decode: %.0f MB allocated, instance footprint %.0f MB",
		float64(allocated)/1e6, float64(footprint)/1e6)
	// The decoder's transient garbage must stay a small multiple of the
	// instance it builds — the old object-graph path was ~10x.
	if budget := uint64(4 * footprint); allocated > budget {
		t.Errorf("decode allocated %d bytes, budget %d (4x instance footprint)", allocated, budget)
	}

	res, err := p.Solve(context.Background(), AlgGTPLazy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("million-flow solve infeasible")
	}
	t.Logf("solve: plan %s, bandwidth %g", res.Plan, res.Bandwidth)
	fmt.Fprintf(os.Stderr, "scale: 1M flows, %.1f bytes/flow, decode %.0f MB, solve bandwidth %g\n",
		float64(fi.Size())/float64(wantFlows), float64(allocated)/1e6, res.Bandwidth)
}
