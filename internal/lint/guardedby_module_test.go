package lint

import (
	"os/exec"
	"testing"
)

// TestInferredGuardsOnServePackage pins the guard inference on the
// real service runtime: the engine's admission state and the job
// store must come out guarded by their mutexes, and the plan cache's
// state — it has no lock of its own — by the engine mutex every
// planCache method is entered under. If a refactor drops enough lock sites
// that the majority flips, this fails before guardedby goes blind on
// the package the analyzers were built for.
func TestInferredGuardsOnServePackage(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	pkgs, err := Load("../..", "./internal/serve")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	guards := InferredGuards(pkgs, BuildGraph(pkgs))

	want := map[string]string{
		"tdmd/internal/serve.Engine.inflight": "tdmd/internal/serve.Engine.mu",
		"tdmd/internal/serve.Engine.cache":    "tdmd/internal/serve.Engine.mu",
		"tdmd/internal/serve.Engine.closed":   "tdmd/internal/serve.Engine.mu",
		"tdmd/internal/serve.JobStore.jobs":   "tdmd/internal/serve.JobStore.mu",
		"tdmd/internal/serve.JobStore.order":  "tdmd/internal/serve.JobStore.mu",
		// The cache internals are reached only through Engine.Submit,
		// flight.finish and Engine.CacheLen, all under Engine.mu.
		"tdmd/internal/serve.planCache.entries": "tdmd/internal/serve.Engine.mu",
		"tdmd/internal/serve.planCache.order":   "tdmd/internal/serve.Engine.mu",
	}
	for field, guard := range want {
		if got := guards[field]; got != guard {
			t.Errorf("guard for %s = %q, want %q (all: %v)", field, got, guard, guards)
		}
	}

	// The admission queue is deliberately NOT mutex-guarded on the
	// worker side: workers receive the channel as a constructor-time
	// parameter. The remaining accesses (the send in Submit, the close
	// in Close) do hold Engine.mu, so the field still infers the guard —
	// and the analyzer run over the module stays clean, which is
	// asserted by scripts/check.sh rather than here.
	if got := guards["tdmd/internal/serve.Engine.queue"]; got != "tdmd/internal/serve.Engine.mu" {
		t.Errorf("guard for Engine.queue = %q, want tdmd/internal/serve.Engine.mu", got)
	}
}
