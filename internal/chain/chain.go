// Package chain implements the single-flow service-chain placement of
// the paper's closest related work (Ma et al., INFOCOM'17 [22]): a
// totally-ordered chain of traffic-changing middleboxes must be placed
// along one flow's path, and the flow's rate is multiplied by each
// middlebox's ratio as it passes. TDMD generalizes the single-box case
// to many flows with sharing; this package provides the chain baseline
// the paper positions against, so the two models can be compared on
// the same paths.
//
// The optimal placement interleaves diminishers (λ < 1, pushed early)
// and expanders (λ > 1, pushed late) subject to the chain order; the
// dynamic program below is the totally-ordered-set algorithm of [22]
// specialized to the bandwidth objective.
package chain

import (
	"fmt"
	"math"
)

// Chain is an ordered list of middlebox traffic-changing ratios; the
// flow must traverse them in this order.
type Chain []float64

// Validate rejects non-positive ratios.
func (c Chain) Validate() error {
	for i, l := range c {
		if l < 0 {
			return fmt.Errorf("chain: middlebox %d has negative ratio %v", i, l)
		}
	}
	return nil
}

// Placement maps each chain position to the index of the path vertex
// hosting it (0 = source). Positions are non-decreasing, preserving
// the chain order along the path; multiple middleboxes may share a
// vertex.
type Placement []int

// Valid reports whether the placement respects the path length and the
// chain order.
func (pl Placement) Valid(pathLen int, m int) bool {
	if len(pl) != m {
		return false
	}
	prev := 0
	for _, q := range pl {
		if q < prev || q > pathLen {
			return false
		}
		prev = q
	}
	return true
}

// Bandwidth returns the flow's total bandwidth consumption under the
// placement: edge i carries rate·Π{λ_j : placement[j] <= i}.
func Bandwidth(rate float64, pathLen int, c Chain, pl Placement) float64 {
	var total float64
	cur := rate
	next := 0
	for i := 0; i < pathLen; i++ {
		for next < len(c) && pl[next] <= i {
			cur *= c[next]
			next++
		}
		total += cur
	}
	return total
}

// Optimal computes the bandwidth-minimal placement of the ordered
// chain on a path with pathLen edges, by dynamic programming over
// (vertex, middleboxes applied). O(pathLen · |chain|) states.
func Optimal(rate float64, pathLen int, c Chain) (Placement, float64, error) {
	if err := c.Validate(); err != nil {
		return nil, 0, err
	}
	if pathLen < 0 {
		return nil, 0, fmt.Errorf("chain: negative path length %d", pathLen)
	}
	m := len(c)
	// prefixRate[j] = rate after the first j middleboxes.
	prefixRate := make([]float64, m+1)
	prefixRate[0] = rate
	for j, l := range c {
		prefixRate[j+1] = prefixRate[j] * l
	}
	// G[i][j] = min cost of edges i..pathLen-1 when j boxes have been
	// applied at vertices <= i and the rest go on vertices >= i.
	G := make([][]float64, pathLen+1)
	choice := make([][]bool, pathLen+1) // true = apply box j at vertex i
	for i := range G {
		G[i] = make([]float64, m+1)
		choice[i] = make([]bool, m+1)
		for j := range G[i] {
			G[i][j] = math.Inf(1)
		}
	}
	// At the destination the remaining boxes can all be applied for
	// free (no edges left).
	for j := 0; j <= m; j++ {
		G[pathLen][j] = 0
	}
	for i := pathLen - 1; i >= 0; i-- {
		for j := m; j >= 0; j-- {
			// Option 1: cross edge i at the current rate.
			best := G[i+1][j] + prefixRate[j]
			applied := false
			// Option 2: apply middlebox j+1 here first.
			if j < m {
				if v := G[i][j+1]; v < best {
					best = v
					applied = true
				}
			}
			G[i][j] = best
			choice[i][j] = applied
		}
	}
	// Trace the placement.
	pl := make(Placement, 0, m)
	i, j := 0, 0
	for i < pathLen {
		if choice[i][j] {
			pl = append(pl, i)
			j++
			continue
		}
		i++
	}
	for len(pl) < m {
		pl = append(pl, pathLen) // leftovers at the destination
	}
	return pl, G[0][0], nil
}

// BruteForce enumerates every valid placement; exponential, tests
// only.
func BruteForce(rate float64, pathLen int, c Chain) (Placement, float64) {
	m := len(c)
	best := math.Inf(1)
	var bestPl Placement
	cur := make(Placement, m)
	var rec func(j, lo int)
	rec = func(j, lo int) {
		if j == m {
			if b := Bandwidth(rate, pathLen, c, cur); b < best {
				best = b
				bestPl = append(Placement(nil), cur...)
			}
			return
		}
		for q := lo; q <= pathLen; q++ {
			cur[j] = q
			rec(j+1, q)
		}
	}
	rec(0, 0)
	return bestPl, best
}

// GreedyUnordered places an unordered set of middleboxes optimally on
// a single path: every diminisher (λ <= 1) at the source, every
// expander at the destination — the non-ordered-set result of [22]
// specialized to one flow. Returns the resulting bandwidth.
func GreedyUnordered(rate float64, pathLen int, ratios []float64) float64 {
	cur := rate
	for _, l := range ratios {
		if l <= 1 {
			cur *= l
		}
	}
	return cur * float64(pathLen)
}
