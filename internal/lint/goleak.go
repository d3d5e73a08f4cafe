package lint

import (
	"go/token"
	"strings"

	"tdmd/internal/lint/flow"
)

// AnalyzerGoLeak enforces goroutine lifecycle hygiene in the packages
// on the service's solve path: internal/placement, internal/serve (the
// worker pool) and cmd/tdmdserve. Every `go` statement must carry a
// completion signal — a channel send or close, or a WaitGroup.Done —
// that the spawning frame (or a goroutine it provably joins, e.g. a
// collector) waits for, and a blocking signal must still be consumed
// on the cancellation branch: a select clause that returns on
// <-ctx.Done() while the only receive for a worker's unbuffered send
// sits in a sibling clause leaks that worker forever.
//
// Signals on parameters are the caller's responsibility (the caller
// sees the channel and owns the join). Close, WaitGroup.Done and
// sends on buffered channels never block the goroutine, so they
// cannot leak it on a missed join — but a goroutine with no signal at
// all is unjoinable by construction and is always reported.
var AnalyzerGoLeak = &Analyzer{
	Name:      "goleak",
	Doc:       "goroutines in internal/placement, internal/serve and cmd/tdmdserve need a join path reachable on the ctx-cancel branch",
	RunModule: runGoLeak,
}

func goleakScope(path string) bool {
	return strings.HasSuffix(path, "internal/placement") ||
		strings.HasSuffix(path, "internal/serve") ||
		strings.HasSuffix(path, "cmd/tdmdserve")
}

func runGoLeak(pkgs []*Package, g *flow.Graph) []Finding {
	var out []Finding
	fset := g.Fset()
	for _, n := range g.Nodes() {
		if !goleakScope(n.Unit.Path) || len(n.Spawns) == 0 {
			continue
		}
		joined := joinClosure(n)
		for _, sp := range n.Spawns {
			if msg := checkSpawn(n, sp, joined, fset); msg != "" {
				out = append(out, Finding{
					Analyzer: "goleak",
					Pos:      fset.Position(sp.Pos),
					Message:  msg,
				})
			}
		}
	}
	return out
}

// joinClosure collects every source the spawning frame joins:
// its own joins (including joins folded in from synchronous callees)
// plus, transitively, the joins performed by goroutines the frame
// already joins — a collector goroutine that is itself waited for
// extends the closure to whatever it waits for.
func joinClosure(n *flow.Node) map[flow.Source][]flow.Join {
	joined := make(map[flow.Source][]flow.Join)
	for _, j := range n.Joins {
		joined[j.Src] = append(joined[j.Src], j)
	}
	for changed := true; changed; {
		changed = false
		for _, sp := range n.Spawns {
			if !spawnJoined(sp, joined) {
				continue
			}
			for _, j := range sp.BodyJoins {
				if _, ok := joined[j.Src]; ok {
					continue
				}
				// Joins performed by a joined goroutine always
				// complete; treat them as deferred (unconditional).
				joined[j.Src] = append(joined[j.Src], flow.Join{Src: j.Src, Pos: j.Pos, Deferred: true})
				changed = true
			}
		}
	}
	return joined
}

// spawnJoined reports whether at least one of the spawn's signals is
// joined (param-sourced signals count: the caller owns them).
func spawnJoined(sp flow.Spawn, joined map[flow.Source][]flow.Join) bool {
	for _, sig := range sp.Signals {
		if sig.Src.Kind == flow.SrcParam {
			return true
		}
		if len(joined[sig.Src]) > 0 {
			return true
		}
	}
	return false
}

// checkSpawn classifies one spawn; a non-empty return is the finding
// message.
func checkSpawn(n *flow.Node, sp flow.Spawn, joined map[flow.Source][]flow.Join, fset *token.FileSet) string {
	callee := sp.Callee
	if callee == "" {
		callee = "goroutine"
	}
	if len(sp.Signals) == 0 {
		return "goroutine (" + callee + ") has no completion signal — no channel send/close or WaitGroup.Done reachable from its body, so nothing can ever join it"
	}
	if !spawnJoined(sp, joined) {
		sig := sp.Signals[0]
		return "goroutine (" + callee + ") signals completion via " + sig.Kind.String() +
			" but the spawning frame never joins it (no receive/Wait on that channel or WaitGroup)"
	}
	// Joined — but a blocking signal must be consumed on the
	// cancellation branch too.
	for _, sig := range sp.Signals {
		if !blockingSignal(n, sig) {
			continue
		}
		joins := joined[sig.Src]
		if sig.Src.Kind == flow.SrcParam || len(joins) == 0 {
			continue
		}
		if !joinSurvivesCancel(n, joins) {
			return "goroutine (" + callee + ") sends on an unbuffered channel whose only receive is in a select clause that a <-ctx.Done() sibling clause returns past — the worker blocks forever on cancellation (receive it on the cancel branch, buffer the channel, or defer the join)"
		}
	}
	return ""
}

// blockingSignal reports whether the signal can block the goroutine:
// only sends on channels not known to be buffered do. Close and Done
// never block.
func blockingSignal(n *flow.Node, sig flow.Signal) bool {
	if sig.Kind != flow.SigSend {
		return false
	}
	if sig.Src.Kind == flow.SrcLocal && n.Buffered[sig.Src.Obj] {
		return false
	}
	return true
}

// joinSurvivesCancel reports whether at least one join for the
// source still runs when the frame takes a cancellation return: a
// deferred join always does; a join inside a select is skipped when
// the same select has a <-ctx.Done() clause that returns.
func joinSurvivesCancel(n *flow.Node, joins []flow.Join) bool {
	for _, j := range joins {
		if j.Deferred {
			return true
		}
		if j.SelectID == token.NoPos {
			return true
		}
		if !ctxReturnInSelect(n, j.SelectID) {
			return true
		}
	}
	return false
}

func ctxReturnInSelect(n *flow.Node, selectID token.Pos) bool {
	for _, r := range n.CtxReturns {
		if r.SelectID == selectID {
			return true
		}
	}
	return false
}
