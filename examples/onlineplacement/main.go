// Online middlebox placement under flow churn: tenants come and go,
// and the controller adapts a λ=0.3 DPI deployment with at most k=6
// boxes — without moving state-heavy middleboxes unless it must.
//
// The example drives the OnlineGTP controller through an
// arrival/departure trace on the Ark-like WAN, reporting plan churn
// (replans, box moves) and how far the online plan drifts from what
// the offline greedy would pick knowing the final workload. A
// maintenance-window Compact() closes the gap at the end.
//
// Run with: go run ./examples/onlineplacement
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"tdmd"
)

func main() {
	const (
		k      = 6
		lambda = 0.3
		seed   = 11
	)
	g := tdmd.ArkLike(tdmd.DefaultArkConfig(seed))
	collectors := []tdmd.NodeID{0, 1}
	pool := tdmd.GeneralFlows(g, collectors, tdmd.GenConfig{
		Density: 0.7, Seed: seed, LinkCapacity: 40,
	})
	fmt.Printf("WAN with %d vertices; flow pool of %d; budget k=%d, λ=%g\n\n",
		g.NumNodes(), len(pool), k, lambda)

	ctl, err := tdmd.NewOnlinePlacer(g, lambda, k)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var live []int
	admitted, rejected := 0, 0
	fmt.Printf("%-8s %-10s %-8s %-12s %-10s\n", "event#", "action", "live", "bandwidth", "plan size")
	for step := 0; step < 120; step++ {
		if len(live) == 0 || (rng.Intn(3) != 0 && len(live) < 40) {
			f := pool[rng.Intn(len(pool))]
			id, err := ctl.AddFlow(context.Background(), f)
			if err != nil {
				rejected++
				continue
			}
			live = append(live, id)
			admitted++
		} else {
			idx := rng.Intn(len(live))
			ctl.RemoveFlow(live[idx])
			live = append(live[:idx], live[idx+1:]...)
		}
		if step%20 == 19 {
			bw, err := ctl.Bandwidth()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8d %-10s %-8d %-12.1f %-10d\n",
				step+1, "checkpoint", len(live), bw, ctl.Plan().Size())
		}
	}
	fmt.Printf("\nadmitted %d, rejected %d; %d replans moving %d boxes total\n",
		admitted, rejected, ctl.Replans, ctl.Moves)

	// How far is the online plan from offline-with-hindsight?
	onlineBW, err := ctl.Bandwidth()
	if err != nil {
		log.Fatal(err)
	}
	problem, err := tdmd.NewProblem(g, ctl.Flows(), lambda)
	if err != nil {
		log.Fatal(err)
	}
	offline, err := problem.Solve(context.Background(), tdmd.AlgGTP, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online bandwidth:  %.1f\noffline (hindsight): %.1f (+%.1f%% online penalty)\n",
		onlineBW, offline.Bandwidth, 100*(onlineBW/offline.Bandwidth-1))

	moved, err := ctl.Compact(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	bw, err := ctl.Bandwidth()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after Compact():   %.1f (moved %d boxes)\n", bw, moved)
}
