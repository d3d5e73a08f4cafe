package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	"tdmd/internal/graph"
)

// Fingerprint canonically identifies one solve submission: the full
// problem (topology, flows, λ, tree root) plus the algorithm, budget
// and seed. Equal fingerprints mean the solve is deterministic-
// identical, which is what licenses coalescing concurrent duplicates
// onto one flight and replaying cached plans bit-for-bit.
//
// Canonicalization is deliberately order-preserving: edge and flow
// insertion order is hashed as-is, because that order is
// solver-visible (tree child order, greedy tie-breaks). Two encodings
// of the "same" network that differ in ordering may legitimately
// solve to different (equally good) plans, so they must not share a
// cache slot. The conservative cost is a cache miss, never a wrong
// plan.
type Fingerprint [sha256.Size]byte

// fpVersion guards the hash layout: bump it whenever the byte layout
// below changes, so plans cached by an old binary can never be
// replayed against a new layout's colliding hash.
const fpVersion = "tdmd-fp/3"

// fpHasher streams fixed-width values into a sha256 through a fixed
// buffer, so a million-flow instance hashes in large writes without
// the reflection cost of encoding/binary.Write or per-flow
// allocations.
type fpHasher struct {
	h   hash.Hash
	n   int
	buf [1024]byte
}

// reserve makes room for size bytes in the buffer, flushing it to the
// digest when full, and returns the space. size is at most 8.
func (f *fpHasher) reserve(size int) []byte {
	if f.n+size > len(f.buf) {
		f.flush()
	}
	f.n += size
	return f.buf[f.n-size : f.n]
}

// flush feeds the buffered bytes to the digest. hash.Hash writers are
// documented never to return an error; a non-nil one means a broken
// Hash implementation, which is a programming error, not a condition
// callers can handle.
func (f *fpHasher) flush() {
	if _, err := f.h.Write(f.buf[:f.n]); err != nil {
		panic(err)
	}
	f.n = 0
}

func (f *fpHasher) u32(v uint32)  { binary.LittleEndian.PutUint32(f.reserve(4), v) }
func (f *fpHasher) u64(v uint64)  { binary.LittleEndian.PutUint64(f.reserve(8), v) }
func (f *fpHasher) i64(v int64)   { f.u64(uint64(v)) }
func (f *fpHasher) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fpHasher) str(s string) {
	f.u64(uint64(len(s)))
	for len(s) > 0 {
		if f.n == len(f.buf) {
			f.flush()
		}
		k := copy(f.buf[f.n:], s)
		f.n += k
		s = s[k:]
	}
}

// SubmissionFingerprint hashes everything that can influence the
// solve's outcome. Node names are excluded (solvers see only dense
// ids); wall-clock budgets are excluded (they are server-wide, not
// per-submission).
//
// The workload is hashed as the instance stores it: each distinct path
// once, in class order (first occurrence), then every flow's rate and
// class. The flows and this encoding determine each other, so equal
// digests still mean equal flow sequences.
func SubmissionFingerprint(sub Submission) Fingerprint {
	f := &fpHasher{h: sha256.New()}
	f.str(fpVersion)
	f.str(string(sub.Algorithm))
	f.i64(int64(sub.K))
	if sub.Seed != nil {
		f.u64(1)
		f.i64(*sub.Seed)
	} else {
		f.u64(0)
	}

	in := sub.Problem.Instance()
	f.f64(in.Lambda)
	g := in.G
	f.i64(int64(g.NumNodes()))
	f.i64(int64(g.NumEdges()))
	for v := range g.NumNodes() { // Edges() order, without its copy
		for _, e := range g.Out(graph.NodeID(v)) {
			f.i64(int64(e.From))
			f.i64(int64(e.To))
		}
	}
	if t := sub.Problem.Tree(); t != nil {
		f.u64(1)
		f.i64(int64(t.Root))
	} else {
		f.u64(0)
	}

	nc := in.NumClasses()
	f.i64(int64(nc))
	for c := 0; c < nc; c++ {
		path := in.FlowPath(in.ClassFlow(c))
		f.u32(uint32(len(path)))
		for _, v := range path {
			f.u32(uint32(v))
		}
	}
	nf := in.NumFlows()
	f.i64(int64(nf))
	for i := 0; i < nf; i++ {
		f.u32(uint32(in.FlowRate(i)))
		f.u32(uint32(in.FlowClass(i)))
	}
	f.flush()

	var fp Fingerprint
	f.h.Sum(fp[:0])
	return fp
}
