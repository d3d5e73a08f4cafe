package tdmd

import (
	"tdmd/internal/chain"
	"tdmd/internal/netsim"
	"tdmd/internal/placement"
)

// Facade re-exports for the surrounding toolkit: link-load inspection,
// the online placement controller and the service-chain solver. They
// exist so commands and examples can stay on the public tdmd API (the
// internalboundary analyzer in internal/lint enforces that) while the
// internal packages remain the single source of truth.

// LinkKey identifies a directed link in a link-load map.
type LinkKey = netsim.LinkKey

// SumLoads adds up a link-load map (as returned by
// Instance.LinkLoads); by construction it equals the total bandwidth
// consumption of the plan the map was computed for.
func SumLoads(loads map[LinkKey]float64) float64 { return netsim.SumLoads(loads) }

// MaxLinkLoad returns the most loaded directed link and its load
// (zero values for an empty map).
func MaxLinkLoad(loads map[LinkKey]float64) (LinkKey, float64) {
	return netsim.MaxLinkLoad(loads)
}

// OnlinePlacer is the incremental placement controller for flow churn:
// flows arrive and depart one at a time and the deployment adapts
// without moving boxes unless coverage forces it (AddFlow), with an
// optional maintenance-window re-optimization (Compact).
type OnlinePlacer = placement.OnlineGTP

// NewOnlinePlacer returns an online controller for the network with
// traffic-changing ratio lambda and a budget of k middleboxes.
func NewOnlinePlacer(g *Graph, lambda float64, k int) (*OnlinePlacer, error) {
	return placement.NewOnlineGTP(g, lambda, k)
}

// Chain is an ordered middlebox service chain given by the per-stage
// traffic-changing ratios λ_1..λ_m (the multi-middlebox extension of
// the paper's single-box model).
type Chain = chain.Chain

// ChainPlacement maps each chain stage to a hop offset on a flow's
// path (stage i processes at edge offset ChainPlacement[i]).
type ChainPlacement = chain.Placement

// ChainBandwidth returns the bandwidth a rate-r flow on a path of
// pathLen edges consumes when the chain's stages sit at the given
// placement.
func ChainBandwidth(rate float64, pathLen int, c Chain, pl ChainPlacement) float64 {
	return chain.Bandwidth(rate, pathLen, c, pl)
}

// ChainOptimal returns a bandwidth-minimal in-order placement of the
// chain on a path of pathLen edges, with its bandwidth.
func ChainOptimal(rate float64, pathLen int, c Chain) (ChainPlacement, float64, error) {
	return chain.Optimal(rate, pathLen, c)
}

// ChainGreedyUnordered returns the bandwidth of the greedy placement
// when the stages may be reordered freely (the lower bound an ordering
// constraint is measured against).
func ChainGreedyUnordered(rate float64, pathLen int, ratios []float64) float64 {
	return chain.GreedyUnordered(rate, pathLen, ratios)
}
