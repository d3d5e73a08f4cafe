package lint

import (
	"strings"
	"testing"
)

// Stub netsim/invariant packages for the allocloop fixtures.
const (
	fakeNetsim = `package netsim

type Instance struct{}

type Plan struct{}

type Allocation []int32

func (in *Instance) Allocate(p Plan) Allocation                        { return nil }
func (in *Instance) AllocateCapacitated(p Plan, capacity int) Allocation { return nil }
`
	fakeInvariant = `package invariant

var Enabled = false
`
)

func TestAllocLoopFlagsCallsInLoops(t *testing.T) {
	a := analyzerByName(t, "allocloop")
	got := runOn(t, a,
		srcPkg{"tdmd/internal/netsim", fakeNetsim},
		srcPkg{"tdmd/internal/placement", `package placement

import "tdmd/internal/netsim"

func Greedy(in *netsim.Instance, p netsim.Plan, vs []int) {
	for i := 0; i < 10; i++ {
		_ = in.Allocate(p)
	}
	for range vs {
		_ = in.Allocate(p)
	}
	for range vs {
		for range in.Allocate(p) {
		}
	}
}
`})
	wantFindings(t, a, got, 3)
	if !strings.Contains(got[0].Message, "netsim.State") {
		t.Errorf("message should point at the incremental engine: %v", got[0])
	}
}

func TestAllocLoopAllowsInvariantGuardAndStraightLine(t *testing.T) {
	a := analyzerByName(t, "allocloop")
	got := runOn(t, a,
		srcPkg{"tdmd/internal/netsim", fakeNetsim},
		srcPkg{"tdmd/internal/invariant", fakeInvariant},
		srcPkg{"tdmd/internal/placement", `package placement

import (
	"tdmd/internal/invariant"
	"tdmd/internal/netsim"
)

func Score(in *netsim.Instance, p netsim.Plan) {
	_ = in.Allocate(p) // once, outside any loop: fine
	for i := 0; i < 10; i++ {
		if invariant.Enabled {
			_ = in.Allocate(p) // sanctioned cross-check
		}
	}
}
`})
	wantFindings(t, a, got, 0)
}

func TestAllocLoopNestedLoopInsideGuardStillFlagged(t *testing.T) {
	a := analyzerByName(t, "allocloop")
	// The exemption covers the guarded block, and a loop inside it is
	// still a cross-check loop — guarded code is trusted wholesale.
	got := runOn(t, a,
		srcPkg{"tdmd/internal/netsim", fakeNetsim},
		srcPkg{"tdmd/internal/invariant", fakeInvariant},
		srcPkg{"tdmd/internal/placement", `package placement

import (
	"tdmd/internal/invariant"
	"tdmd/internal/netsim"
)

func Verify(in *netsim.Instance, ps []netsim.Plan) {
	if invariant.Enabled {
		for _, p := range ps {
			_ = in.Allocate(p)
		}
	}
}
`})
	wantFindings(t, a, got, 0)
}

func TestAllocLoopIgnoresCapacitatedAndOtherPackages(t *testing.T) {
	a := analyzerByName(t, "allocloop")
	// AllocateCapacitated has no incremental form and stays allowed.
	got := runOn(t, a,
		srcPkg{"tdmd/internal/netsim", fakeNetsim},
		srcPkg{"tdmd/internal/placement", `package placement

import "tdmd/internal/netsim"

func Capacitated(in *netsim.Instance, p netsim.Plan) {
	for i := 0; i < 10; i++ {
		_ = in.AllocateCapacitated(p, 4)
	}
}
`})
	wantFindings(t, a, got, 0)

	// The rule is scoped to the placement package: the model layer and
	// harnesses may re-allocate freely.
	got = runOn(t, a,
		srcPkg{"tdmd/internal/netsim", fakeNetsim},
		srcPkg{"tdmd/internal/experiments", `package experiments

import "tdmd/internal/netsim"

func Sweep(in *netsim.Instance, ps []netsim.Plan) {
	for _, p := range ps {
		_ = in.Allocate(p)
	}
}
`})
	wantFindings(t, a, got, 0)
}
