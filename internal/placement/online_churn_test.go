package placement

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/netsim"
	"tdmd/internal/topology"
	"tdmd/internal/traffic"
)

// refAddFlow is AddFlow as it was before arrivals were checked against
// running totals: it builds the instance over every live flow plus the
// arrival first and tests coverage after. TestOnlineChurnMatchesReference
// holds AddFlow to it.
func refAddFlow(ctx context.Context, o *OnlineGTP, f traffic.Flow) (int, error) {
	f.ID = o.nextID
	candidate := append(o.flows, f)
	in, err := netsim.New(o.g, candidate, o.lambda)
	if err != nil {
		return 0, err
	}
	covered := false
	for _, v := range f.Path {
		if o.plan.Has(v) {
			covered = true
			break
		}
	}
	switch {
	case covered:
	case o.plan.Size() < o.k:
		if canceled(ctx) {
			return 0, interruptedErr(ctx)
		}
		st := netsim.NewState(in, o.plan)
		v, ok := bestCandidate(st, nil)
		if !ok || !improves(st, v) {
			return 0, ErrInfeasible
		}
		o.plan.Add(v)
	default:
		res, err := GTPBudget(ctx, in, o.k)
		if err != nil || res.Interrupted != nil {
			if canceled(ctx) {
				return 0, interruptedErr(ctx)
			}
			return 0, ErrInfeasible
		}
		o.Replans++
		o.Moves += planDiff(o.plan, res.Plan)
		o.plan = res.Plan
	}
	o.flows = candidate
	o.nextID++
	return f.ID, nil
}

// faulty returns a copy of f with one of the faults netsim.New rejects,
// or that may or may not be one (a shortcut hop), chosen by rng.
func faulty(rng *rand.Rand, f traffic.Flow, n int) traffic.Flow {
	f.Path = slices.Clone(f.Path)
	switch rng.Intn(7) {
	case 0:
		f.Rate = 0
	case 1:
		f.Rate = traffic.MaxFlowRate + 1
	case 2:
		f.Path = append(f.Path, f.Path[0]) // revisits its source
	case 3:
		f.Path[len(f.Path)-1] = graph.NodeID(n + 3)
	case 4:
		f.Path[0] = -1
	case 5:
		f.Path = f.Path[:1]
	default:
		f.Path = graph.Path{f.Path[0], f.Path[len(f.Path)-1]}
	}
	return f
}

// touchesPlan reports whether a vertex of path, which may hold
// negative ids, is in the plan.
func touchesPlan(plan netsim.Plan, path graph.Path) bool {
	for _, v := range path {
		if v >= 0 && plan.Has(v) {
			return true
		}
	}
	return false
}

// TestOnlineChurnMatchesReference: over seeded churn traces —
// arrivals (a share of them faulty), departures and Compact calls — the
// controller admits, rejects and places exactly as the reference that
// builds an instance on every arrival: same IDs, errors, plans,
// Replans, Moves and live flows after every event.
func TestOnlineChurnMatchesReference(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := topology.GeneralRandom(30, 0.5, seed)
		pool := traffic.GeneralFlows(g, []graph.NodeID{0, 1}, traffic.GenConfig{
			Density: 0.6, Seed: seed, MaxFlows: 200})
		k := 2 + rng.Intn(4)
		got, err := NewOnlineGTP(g, 0.5, k)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewOnlineGTP(g, 0.5, k)
		var live []int
		coveredFaulty, rejected := 0, 0
		for step := 0; step < 400; step++ {
			event := "compact"
			switch r := rng.Intn(20); {
			case r < 12 || len(live) == 0:
				f := pool[rng.Intn(len(pool))]
				if rng.Intn(6) == 0 {
					f = faulty(rng, f, g.NumNodes())
					if touchesPlan(want.plan, f.Path) {
						coveredFaulty++
					}
				}
				event = fmt.Sprintf("arrival %v", f)
				id, err := got.AddFlow(ctx, f)
				wantID, wantErr := refAddFlow(ctx, want, f)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || id != wantID {
					t.Fatalf("seed %d step %d %s: got (%d, %v), want (%d, %v)", seed, step, event, id, err, wantID, wantErr)
				}
				if err == nil {
					live = append(live, id)
				} else {
					rejected++
				}
			case r < 18:
				i := rng.Intn(len(live))
				event = fmt.Sprintf("departure %d", live[i])
				if !got.RemoveFlow(live[i]) || !want.RemoveFlow(live[i]) {
					t.Fatalf("seed %d step %d: %s not live", seed, step, event)
				}
				live = slices.Delete(live, i, i+1)
			default:
				moved, err := got.Compact(ctx)
				wantMoved, wantErr := want.Compact(ctx)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || moved != wantMoved {
					t.Fatalf("seed %d step %d compact: got (%d, %v), want (%d, %v)", seed, step, moved, err, wantMoved, wantErr)
				}
			}
			if got.Plan().String() != want.Plan().String() || got.Replans != want.Replans || got.Moves != want.Moves {
				t.Fatalf("seed %d step %d %s: plan %s replans %d moves %d, want %s / %d / %d", seed, step, event,
					got.Plan(), got.Replans, got.Moves, want.Plan(), want.Replans, want.Moves)
			}
			if fmt.Sprint(got.Flows()) != fmt.Sprint(want.Flows()) {
				t.Fatalf("seed %d step %d %s: live flows differ", seed, step, event)
			}
		}
		if coveredFaulty == 0 || rejected == 0 || want.Replans == 0 {
			t.Fatalf("seed %d: trace exercised %d covered faulty arrivals, %d rejections, %d replans",
				seed, coveredFaulty, rejected, want.Replans)
		}
	}
}

// BenchmarkOnlineAddFlow admits N arrivals, shortest-path flows to
// three hubs on a |V| = 200 random topology at λ = 0.5, into a fresh
// controller with budget k = 10. Once the plan covers the hubs every
// arrival is covered, so the cost per arrival should stay flat in N.
func BenchmarkOnlineAddFlow(b *testing.B) {
	g := topology.GeneralRandom(200, 0.5, 1)
	fl := traffic.GeneralFlows(g, []graph.NodeID{0, 1, 2}, traffic.GenConfig{
		Density: 1e12, Seed: 2, MaxFlows: 8000})
	for _, n := range []int{1000, 2000, 4000, 8000} {
		if len(fl) < n {
			b.Fatalf("workload generation produced %d flows, want %d", len(fl), n)
		}
		b.Run(fmt.Sprintf("arrivals=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o, err := NewOnlineGTP(g, 0.5, 10)
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range fl[:n] {
					if _, err := o.AddFlow(context.Background(), f); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
