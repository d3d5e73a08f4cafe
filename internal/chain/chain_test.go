package chain

import (
	"math"
	"math/rand"
	"testing"
)

func TestBandwidthManual(t *testing.T) {
	// Path with 2 edges, chain [0.5]: box at source halves both edges.
	if got := Bandwidth(4, 2, Chain{0.5}, Placement{0}); got != 4 {
		t.Fatalf("b = %v, want 4", got)
	}
	// Box at vertex 1: first edge full, second halved.
	if got := Bandwidth(4, 2, Chain{0.5}, Placement{1}); got != 6 {
		t.Fatalf("b = %v, want 6", got)
	}
	// Box at destination: nothing changes on-path.
	if got := Bandwidth(4, 2, Chain{0.5}, Placement{2}); got != 8 {
		t.Fatalf("b = %v, want 8", got)
	}
}

func TestOptimalDiminisherGoesEarly(t *testing.T) {
	pl, b, err := Optimal(4, 3, Chain{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if pl[0] != 0 {
		t.Fatalf("diminisher at %d, want source", pl[0])
	}
	if b != 6 { // 3 edges at rate 2
		t.Fatalf("b = %v, want 6", b)
	}
}

func TestOptimalExpanderGoesLate(t *testing.T) {
	pl, b, err := Optimal(4, 3, Chain{2.0})
	if err != nil {
		t.Fatal(err)
	}
	if pl[0] != 3 {
		t.Fatalf("expander at %d, want destination", pl[0])
	}
	if b != 12 { // unexpanded on all 3 edges
		t.Fatalf("b = %v, want 12", b)
	}
}

func TestOptimalMixedChainInterleaves(t *testing.T) {
	// Order [diminisher, expander]: shrink at source, grow at sink.
	pl, b, err := Optimal(1, 2, Chain{0.5, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if pl[0] != 0 || pl[1] != 2 {
		t.Fatalf("placement = %v, want [0 2]", pl)
	}
	if b != 1 { // both edges at rate 0.5
		t.Fatalf("b = %v, want 1", b)
	}
	// Forced order [expander, diminisher]: the best is 2 (e.g. both at
	// the same vertex so the net ratio 1 applies at once).
	_, b2, err := Optimal(1, 2, Chain{2.0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if b2 != 2 {
		t.Fatalf("forced-order b = %v, want 2", b2)
	}
}

func TestOptimalSpamFilterChain(t *testing.T) {
	// A spam filter (λ=0) anywhere before the last edge zeroes the
	// tail; optimal puts it at the source and the whole path is free.
	_, b, err := Optimal(7, 5, Chain{0})
	if err != nil {
		t.Fatal(err)
	}
	if b != 0 {
		t.Fatalf("b = %v, want 0", b)
	}
}

func TestOptimalEmptyChainAndPath(t *testing.T) {
	pl, b, err := Optimal(3, 4, nil)
	if err != nil || len(pl) != 0 {
		t.Fatalf("empty chain: %v %v", pl, err)
	}
	if b != 12 {
		t.Fatalf("b = %v, want 12", b)
	}
	pl, b, err = Optimal(3, 0, Chain{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if b != 0 || !pl.Valid(0, 2) {
		t.Fatalf("zero-length path: b=%v pl=%v", b, pl)
	}
	if _, _, err := Optimal(3, -1, nil); err == nil {
		t.Fatal("negative path accepted")
	}
	if _, _, err := Optimal(3, 2, Chain{-0.5}); err == nil {
		t.Fatal("negative ratio accepted")
	}
}

// Property: the DP matches brute force on random chains, and its
// traced placement reproduces its claimed bandwidth.
func TestOptimalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		pathLen := 1 + rng.Intn(6)
		m := rng.Intn(4)
		c := make(Chain, m)
		for j := range c {
			// Mix of diminishers, neutral, and expanders.
			c[j] = []float64{0, 0.25, 0.5, 1, 1.5, 2, 3}[rng.Intn(7)]
		}
		rate := float64(1 + rng.Intn(9))
		pl, got, err := Optimal(rate, pathLen, c)
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Valid(pathLen, m) {
			t.Fatalf("trial %d: invalid placement %v", trial, pl)
		}
		if rb := Bandwidth(rate, pathLen, c, pl); math.Abs(rb-got) > 1e-9 {
			t.Fatalf("trial %d: placement scores %v, DP claimed %v", trial, rb, got)
		}
		_, want := BruteForce(rate, pathLen, c)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: DP %v != brute %v (chain %v, L=%d)", trial, got, want, c, pathLen)
		}
	}
}

func TestGreedyUnordered(t *testing.T) {
	// Diminishers compound at the source; expanders wait at the sink.
	if got := GreedyUnordered(4, 3, []float64{0.5, 2, 0.5}); got != 3 {
		t.Fatalf("b = %v, want 3 (4·0.25·3 edges)", got)
	}
	// Unordered placement is never worse than any chain order.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		pathLen := 1 + rng.Intn(5)
		m := 1 + rng.Intn(3)
		c := make(Chain, m)
		for j := range c {
			c[j] = []float64{0.25, 0.5, 1.5, 2}[rng.Intn(4)]
		}
		_, ordered, err := Optimal(2, pathLen, c)
		if err != nil {
			t.Fatal(err)
		}
		unordered := GreedyUnordered(2, pathLen, c)
		if unordered > ordered+1e-9 {
			t.Fatalf("trial %d: unordered %v worse than ordered %v", trial, unordered, ordered)
		}
	}
}

func TestPlacementValid(t *testing.T) {
	if !(Placement{0, 1, 1, 3}).Valid(3, 4) {
		t.Fatal("valid placement rejected")
	}
	if (Placement{1, 0}).Valid(3, 2) {
		t.Fatal("order violation accepted")
	}
	if (Placement{0, 4}).Valid(3, 2) {
		t.Fatal("overflow accepted")
	}
	if (Placement{0}).Valid(3, 2) {
		t.Fatal("wrong arity accepted")
	}
}
