package placement

import (
	"context"
	"sync"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// TestConcurrentSolversShareInstance hammers one *netsim.Instance with
// every solver entry point at once. An Instance is read-only after
// construction except for the lazily materialized flow view (guarded
// by sync.Once), so concurrent solves must be safe; this test is the
// regression net for that contract and is expected to run under
// `go test -race`.
func TestConcurrentSolversShareInstance(t *testing.T) {
	g := topology.GeneralRandom(24, 0.7, 9)
	flows := traffic.GeneralFlows(g, []graph.NodeID{0, 1}, traffic.GenConfig{
		Density: 0.4, Seed: 9, MaxFlows: 60})
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
	in := netsim.MustNew(g, flows, 0.5)

	serialGTP := GTP(context.Background(), in)
	serialLazy := GTPLazy(context.Background(), in)
	serialBudget, budgetErr := GTPBudget(context.Background(), in, 4)

	rounds := 4
	if raceEnabled {
		rounds = 2 // the detector slows each solve 5-10×
	}
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			r := GTP(context.Background(), in)
			if r.Plan.String() != serialGTP.Plan.String() || r.Bandwidth != serialGTP.Bandwidth {
				t.Errorf("concurrent GTP diverged: %v (%v) vs %v (%v)",
					r.Plan, r.Bandwidth, serialGTP.Plan, serialGTP.Bandwidth)
			}
		}()
		go func() {
			defer wg.Done()
			r := GTPLazy(context.Background(), in)
			if r.Plan.String() != serialLazy.Plan.String() {
				t.Errorf("concurrent GTPLazy diverged: %v vs %v", r.Plan, serialLazy.Plan)
			}
		}()
		go func() {
			defer wg.Done()
			r, err := GTPBudget(context.Background(), in, 4) // the budget guard mutates only this solve's own State
			if (err == nil) != (budgetErr == nil) {
				t.Errorf("concurrent GTPBudget error mismatch: %v vs %v", err, budgetErr)
				return
			}
			if err == nil && r.Plan.String() != serialBudget.Plan.String() {
				t.Errorf("concurrent GTPBudget diverged: %v vs %v", r.Plan, serialBudget.Plan)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := Exhaustive(context.Background(), in, 3); err != nil {
				// Infeasibility is a legitimate instance property; data
				// races are what this test exists to surface.
				t.Logf("Exhaustive: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentTreeDPShareInstance runs the tree solvers concurrently
// on one shared instance (the DP allocates all mutable state per call).
func TestConcurrentTreeDPShareInstance(t *testing.T) {
	in, tree := fig5Instance(t)
	serial, err := TreeDP(context.Background(), in, tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := TreeDP(context.Background(), in, tree, 2)
			if err != nil {
				t.Error(err)
				return
			}
			if r.Bandwidth != serial.Bandwidth {
				t.Errorf("concurrent TreeDP bandwidth %v, want %v", r.Bandwidth, serial.Bandwidth)
			}
		}()
	}
	wg.Wait()
}
