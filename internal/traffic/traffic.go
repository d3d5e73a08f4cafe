// Package traffic models the flow workload of the TDMD problem:
// unsplittable flows with fixed paths and integral initial rates, plus
// generators that produce workloads at a target flow density.
//
// The paper draws flow sizes from a 1-hour CAIDA packet trace. That
// trace is not redistributable, so CAIDALike substitutes the
// well-established heavy-tailed shape of Internet flow sizes (a
// lognormal body of "mice" with a Pareto tail of "elephants"); see
// DESIGN.md, "Substitutions". Rates are quantized to positive integers
// because the tree DP is pseudo-polynomial in the rate values.
package traffic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"tdmd/internal/graph"
)

// Flow is an unsplittable flow with a predetermined path.
type Flow struct {
	ID   int
	Rate int        // initial traffic rate r_f (integral, >= 1)
	Path graph.Path // src .. dst, fixed a priori
}

// Src returns the flow's source vertex.
func (f Flow) Src() graph.NodeID { return f.Path.Src() }

// Dst returns the flow's destination vertex.
func (f Flow) Dst() graph.NodeID { return f.Path.Dst() }

// Hops returns |p_f|, the number of edges on the path.
func (f Flow) Hops() int { return f.Path.Len() }

// String renders a short description.
func (f Flow) String() string {
	return fmt.Sprintf("f%d(r=%d, %s)", f.ID, f.Rate, f.Path)
}

// TotalRate sums the initial rates of all flows.
func TotalRate(flows []Flow) int {
	total := 0
	for _, f := range flows {
		total += f.Rate
	}
	return total
}

// MaxRate returns the largest initial rate (r_max in the paper's
// complexity analysis), or 0 for an empty workload.
func MaxRate(flows []Flow) int {
	m := 0
	for _, f := range flows {
		if f.Rate > m {
			m = f.Rate
		}
	}
	return m
}

// RawDemand returns the total unprocessed bandwidth demand
// Σ_f r_f·|p_f|, the consumption when no middlebox is deployed.
func RawDemand(flows []Flow) float64 {
	var d float64
	for _, f := range flows {
		d += float64(f.Rate) * float64(f.Hops())
	}
	return d
}

// ErrInvalidPath is the sentinel wrapped by every PathError; test with
// errors.Is to classify ingestion failures without string matching.
var ErrInvalidPath = errors.New("traffic: invalid flow path")

// PathError is the typed rejection every workload validator returns
// for a malformed flow: which flow, which hop, and why. It wraps
// ErrInvalidPath.
type PathError struct {
	Flow     int          // flow ID (or stream index) being validated
	Hop      int          // offending hop index into the path, -1 if structural
	From, To graph.NodeID // offending hop pair (zero values if structural)
	Reason   string       // human-readable cause
}

// Error implements error.
func (e *PathError) Error() string {
	if e.Hop >= 0 {
		return fmt.Sprintf("traffic: flow %d: invalid path at hop %d (%d -> %d): %s",
			e.Flow, e.Hop, e.From, e.To, e.Reason)
	}
	return fmt.Sprintf("traffic: flow %d: invalid path: %s", e.Flow, e.Reason)
}

// Unwrap ties the typed error to the ErrInvalidPath sentinel.
func (e *PathError) Unwrap() error { return ErrInvalidPath }

// ValidateFlow checks one flow against the adjacency index: positive
// rate, at least one edge, every consecutive hop pair an actual edge,
// and no vertex visited twice (the model's through index counts one
// visit per occurrence, so a revisiting walk would double-count the
// flow's marginal — such paths are rejected, not silently mis-scored).
// id names the flow in the returned *PathError.
func ValidateFlow(adj graph.AdjSet, id, rate int, path graph.Path) error {
	if err := ValidateRate(id, rate); err != nil {
		return err
	}
	switch len(path) {
	case 0:
		return &PathError{Flow: id, Hop: -1, Reason: "empty path"}
	case 1:
		return &PathError{Flow: id, Hop: -1, Reason: "single-vertex path has no edges"}
	}
	n := graph.NodeID(adj.Len())
	for i, v := range path {
		if v < 0 || v >= n {
			return &PathError{Flow: id, Hop: i, From: v, To: v,
				Reason: fmt.Sprintf("vertex %d outside graph (n=%d)", v, n)}
		}
		// Paths are short (network diameters), so the quadratic
		// repeated-vertex scan beats any per-flow set allocation.
		for j := 0; j < i; j++ {
			if path[j] == v {
				return &PathError{Flow: id, Hop: i, From: v, To: v,
					Reason: fmt.Sprintf("vertex %d visited twice (positions %d and %d)", v, j, i)}
			}
		}
	}
	for i := 0; i+1 < len(path); i++ {
		if !adj.Has(path[i], path[i+1]) {
			return &PathError{Flow: id, Hop: i, From: path[i], To: path[i+1],
				Reason: "consecutive hops are not joined by an edge"}
		}
	}
	return nil
}

// MaxFlowRate is the largest flow rate an instance stores: its rate arena
// holds int32s.
const MaxFlowRate = math.MaxInt32

// ValidateRate is ValidateFlow's per-flow check alone, for a flow
// whose path is already known valid: a positive rate.
func ValidateRate(id, rate int) error {
	if rate < 1 {
		return &PathError{Flow: id, Hop: -1, Reason: fmt.Sprintf("non-positive rate %d", rate)}
	}
	return nil
}

// Validate checks that every flow's path is a simple directed path of
// g with at least one edge and a positive rate. Failures are typed
// *PathError values wrapping ErrInvalidPath.
func Validate(g *graph.Graph, flows []Flow) error {
	adj := graph.NewAdjSet(g)
	for _, f := range flows {
		if err := ValidateFlow(adj, f.ID, f.Rate, f.Path); err != nil {
			return err
		}
	}
	return nil
}

// Distribution samples integral flow rates.
type Distribution interface {
	// Sample draws one rate, always >= 1.
	Sample(rng *rand.Rand) int
}

// Constant always returns Value.
type Constant struct{ Value int }

// Sample implements Distribution.
func (c Constant) Sample(*rand.Rand) int {
	if c.Value < 1 {
		return 1
	}
	return c.Value
}

// Uniform draws uniformly from [Lo, Hi].
type Uniform struct{ Lo, Hi int }

// Sample implements Distribution.
func (u Uniform) Sample(rng *rand.Rand) int {
	lo, hi := u.Lo, u.Hi
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// CAIDALike is a heavy-tailed flow-size mixture standing in for the
// CAIDA trace: with probability 1-ElephantFrac a lognormal "mouse",
// otherwise a Pareto "elephant". Samples are clamped to [1, Cap].
type CAIDALike struct {
	Mu, Sigma    float64 // lognormal body parameters (of ln rate)
	ParetoAlpha  float64 // tail index, < 2 for Internet-like heavy tails
	ParetoScale  float64 // tail minimum
	ElephantFrac float64 // probability of drawing from the tail
	Cap          int     // upper clamp keeping the DP tractable
}

// DefaultCAIDALike returns the mixture used throughout the evaluation:
// mice around 2-6 units, elephants occasionally 10x that, capped at 64.
func DefaultCAIDALike() CAIDALike {
	return CAIDALike{
		Mu:           1.0,
		Sigma:        0.8,
		ParetoAlpha:  1.3,
		ParetoScale:  8,
		ElephantFrac: 0.12,
		Cap:          64,
	}
}

// Sample implements Distribution.
func (c CAIDALike) Sample(rng *rand.Rand) int {
	var x float64
	if rng.Float64() < c.ElephantFrac {
		// Pareto via inverse CDF.
		u := rng.Float64()
		if u < 1e-300 { // Float64 is in [0, 1); guard the u=0 pole exactly
			u = 1e-12
		}
		x = c.ParetoScale / math.Pow(u, 1/c.ParetoAlpha)
	} else {
		x = math.Exp(c.Mu + c.Sigma*rng.NormFloat64())
	}
	r := int(math.Round(x))
	if r < 1 {
		r = 1
	}
	if c.Cap > 0 && r > c.Cap {
		r = c.Cap
	}
	return r
}

// GenConfig controls workload generation.
type GenConfig struct {
	// Density is the target flow density: total traffic load
	// (Σ r_f·|p_f|) divided by total network capacity
	// (LinkCapacity × number of directed links). Generation stops when
	// the density is reached or MaxFlows is hit.
	Density float64
	// LinkCapacity is the uniform per-link capacity. The paper assumes
	// links are over-provisioned, so capacity only defines density.
	LinkCapacity float64
	// Dist draws flow rates; nil means DefaultCAIDALike().
	Dist Distribution
	// Seed makes generation deterministic.
	Seed int64
	// MaxFlows bounds the workload size (0 means 10× vertex count).
	MaxFlows int
}

func (cfg GenConfig) withDefaults(g *graph.Graph) GenConfig {
	if cfg.Dist == nil {
		cfg.Dist = DefaultCAIDALike()
	}
	if cfg.LinkCapacity <= 0 {
		cfg.LinkCapacity = 100
	}
	if cfg.MaxFlows <= 0 {
		cfg.MaxFlows = 10 * g.NumNodes()
	}
	return cfg
}

// GenerateTree streams leaf-to-root flows on t to yield, one at a
// time, until the target density is reached: sources drawn uniformly
// from the leaves, destination the root, path the unique tree path —
// the workload shape of Sec. 5. The yielded Flow (including its path
// slice) is only valid for the duration of the call unless yield
// retains it; the generator itself accumulates nothing, so a
// multi-million-flow matrix is produced in O(1) working memory.
// Generation stops early, returning yield's error, if yield fails.
// It returns the number of flows yielded.
func GenerateTree(t *graph.Tree, cfg GenConfig, yield func(Flow) error) (int, error) {
	cfg = cfg.withDefaults(t.G)
	rng := rand.New(rand.NewSource(cfg.Seed))
	leaves := t.Leaves()
	if len(leaves) == 1 && leaves[0] == t.Root {
		return 0, nil // single-vertex tree carries no flows
	}
	// A leaf that IS the root can't source a flow.
	var sources []graph.NodeID
	for _, l := range leaves {
		if l != t.Root {
			sources = append(sources, l)
		}
	}
	capacity := cfg.LinkCapacity * float64(t.G.NumEdges())
	count := 0
	var load float64
	for count < cfg.MaxFlows && load < cfg.Density*capacity {
		src := sources[rng.Intn(len(sources))]
		p := t.PathToRoot(src)
		r := cfg.Dist.Sample(rng)
		if err := yield(Flow{ID: count, Rate: r, Path: p}); err != nil {
			return count, err
		}
		count++
		load += float64(r) * float64(p.Len())
	}
	return count, nil
}

// TreeFlows collects GenerateTree's stream into a slice.
func TreeFlows(t *graph.Tree, cfg GenConfig) []Flow {
	var flows []Flow
	if _, err := GenerateTree(t, cfg, func(f Flow) error {
		flows = append(flows, f)
		return nil
	}); err != nil {
		panic(err) // the yield never errors
	}
	return flows
}

// GenerateGeneral streams flows on a general graph to yield: sources
// uniform over non-destination vertices, destinations uniform over
// dsts, shortest-path (minimum-hop) routing, until the target density
// is reached. dsts plays the role of the paper's red destination
// nodes. Same streaming contract as GenerateTree: nothing accumulates,
// the yielded path is only valid during the call, and yield's error
// stops generation.
func GenerateGeneral(g *graph.Graph, dsts []graph.NodeID, cfg GenConfig, yield func(Flow) error) (int, error) {
	if len(dsts) == 0 {
		panic("traffic: GenerateGeneral needs at least one destination")
	}
	cfg = cfg.withDefaults(g)
	rng := rand.New(rand.NewSource(cfg.Seed))
	isDst := map[graph.NodeID]bool{}
	for _, d := range dsts {
		isDst[d] = true
	}
	var sources []graph.NodeID
	for _, v := range g.Nodes() {
		if !isDst[v] {
			sources = append(sources, v)
		}
	}
	if len(sources) == 0 {
		panic("traffic: every vertex is a destination")
	}
	capacity := cfg.LinkCapacity * float64(g.NumEdges())
	count := 0
	var load float64
	attempts := 0
	for count < cfg.MaxFlows && load < cfg.Density*capacity {
		attempts++
		if attempts > 100*cfg.MaxFlows {
			break // pathological topology: avoid spinning forever
		}
		src := sources[rng.Intn(len(sources))]
		dst := dsts[rng.Intn(len(dsts))]
		p, err := g.ShortestPath(src, dst)
		if err != nil || p.Len() == 0 {
			continue
		}
		r := cfg.Dist.Sample(rng)
		if err := yield(Flow{ID: count, Rate: r, Path: p}); err != nil {
			return count, err
		}
		count++
		load += float64(r) * float64(p.Len())
	}
	return count, nil
}

// GeneralFlows collects GenerateGeneral's stream into a slice.
func GeneralFlows(g *graph.Graph, dsts []graph.NodeID, cfg GenConfig) []Flow {
	var flows []Flow
	if _, err := GenerateGeneral(g, dsts, cfg, func(f Flow) error {
		flows = append(flows, f)
		return nil
	}); err != nil {
		panic(err) // the yield never errors
	}
	return flows
}

// MergeSameSource coalesces flows that share both source and full path
// into single flows whose rate is the sum — the reduction the paper
// applies before the tree DP ("for flows from the same leaf source, we
// can treat them as a single flow"). IDs are renumbered.
func MergeSameSource(flows []Flow) []Flow {
	type key struct {
		src, dst graph.NodeID
		hops     int
	}
	// Two tree flows with equal (src, dst) necessarily share the whole
	// path; include hops for safety on general graphs.
	index := map[key]int{}
	var out []Flow
	for _, f := range flows {
		k := key{f.Src(), f.Dst(), f.Hops()}
		if i, ok := index[k]; ok && pathsEqual(out[i].Path, f.Path) {
			out[i].Rate += f.Rate
			continue
		}
		index[k] = len(out)
		out = append(out, Flow{ID: len(out), Rate: f.Rate, Path: f.Path})
	}
	return out
}

func pathsEqual(a, b graph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
