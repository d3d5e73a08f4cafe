// Package invariant provides runtime assertions for the model-level
// invariants the paper's correctness argument relies on (every flow
// served exactly once, plan size within budget, the closed-form
// objective agreeing with the hop-by-hop link-load recomputation of
// Eq. 1). The checks are off by default so hot paths pay nothing
// beyond a predictable branch; they are switched on at compile time
// with `-tags tdmdinvariant` (Enabled becomes a true constant and the
// guards compile away in the opposite direction: the checks are
// always in).
//
// Callers guard expensive recomputations with `if invariant.Enabled`
// so a disabled build does no assertion work at all:
//
//	if invariant.Enabled {
//		invariant.Assert(plan.Size() <= k, "plan %v exceeds budget %d", plan, k)
//	}
//
// A violated assertion panics: an invariant failure is a programming
// error in this repository, never a user-input error.
package invariant

import "fmt"

// Assert panics with a formatted message when enabled and cond is
// false. It is a no-op when the package is disabled.
func Assert(cond bool, format string, args ...any) {
	if !Enabled || cond {
		return
	}
	panic("invariant violated: " + fmt.Sprintf(format, args...))
}
