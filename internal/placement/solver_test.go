package placement

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
)

// The registry and option-validation layer of the unified solver
// architecture: Register panics on programming errors, Names is the
// complete sorted catalogue, ValidateOptions enforces consume/require
// masks, and Solve is the single dispatch path.

// allSolverNames is the full registry wired by register.go, sorted.
var allSolverNames = []string{
	"best-effort", "bnb", "capacitated", "dp", "exhaustive", "gtp",
	"gtp-lazy", "gtp-ls", "hat", "min-boxes", "multistart-ls", "random",
}

func TestRegistryNamesCompleteAndSorted(t *testing.T) {
	got := Names()
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Names() not sorted: %v", got)
	}
	if len(got) != len(allSolverNames) {
		t.Fatalf("registry has %d solvers, want %d: %v", len(got), len(allSolverNames), got)
	}
	for i, name := range allSolverNames {
		if got[i] != name {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], name)
		}
	}
	for _, name := range got {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed for a listed name", name)
		}
		tr := s.Traits()
		if tr.Name != name {
			t.Fatalf("solver %q reports Traits().Name %q", name, tr.Name)
		}
		if tr.Doc == "" {
			t.Fatalf("solver %q has no doc line", name)
		}
		if missing := tr.Requires &^ tr.Consumes; missing != 0 {
			t.Fatalf("solver %q requires option(s) %v it does not consume",
				name, missing.Names())
		}
	}
}

func TestRegisterPanicsOnEmptyAndDuplicateName(t *testing.T) {
	mustPanic := func(name string, s Solver) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Register(%q) did not panic", name)
			}
		}()
		Register(s)
	}
	mustPanic("", funcSolver{traits: Traits{Name: ""}})
	mustPanic("gtp", funcSolver{traits: Traits{Name: "gtp"}})
}

func TestLookupUnknownSolver(t *testing.T) {
	if _, ok := Lookup("no-such-solver"); ok {
		t.Fatal("Lookup invented a solver")
	}
}

func TestSolveUnknownNameListsCatalogue(t *testing.T) {
	in := fig1Instance(t)
	_, err := Solve(context.Background(), "no-such-solver", in, NewOptions())
	if err == nil {
		t.Fatal("unknown solver accepted")
	}
	for _, name := range []string{"gtp", "dp", "exhaustive"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list available solver %q", err, name)
		}
	}
}

func TestValidateOptionsRejectsUnconsumedExplicit(t *testing.T) {
	// gtp-lazy consumes nothing: the old facade silently dropped an
	// explicit budget here, now it is a typed error.
	s, _ := Lookup("gtp-lazy")
	err := ValidateOptions(s.Traits(), NewOptions(WithK(3)))
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("unconsumed explicit k: got %v, want ErrBadOptions", err)
	}
	var bad *BadOptionsError
	if !errors.As(err, &bad) || bad.Solver != "gtp-lazy" || !strings.Contains(bad.Reason, "k") {
		t.Fatalf("typed error malformed: %+v", bad)
	}
}

func TestValidateOptionsRejectsMissingRequirement(t *testing.T) {
	// random without any seed: the old facade silently used a global
	// stream, now it is a typed error.
	s, _ := Lookup("random")
	err := ValidateOptions(s.Traits(), NewOptions(WithK(3)))
	if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("missing seed: got %v", err)
	}
	// dp without a tree view.
	s, _ = Lookup("dp")
	err = ValidateOptions(s.Traits(), NewOptions(WithK(3)))
	if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), "tree") {
		t.Fatalf("missing tree: got %v", err)
	}
}

func TestValidateOptionsRejectsDegenerateValues(t *testing.T) {
	s, _ := Lookup("exhaustive")
	if err := ValidateOptions(s.Traits(), NewOptions(WithK(0))); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("k=0 accepted by a budgeted solver: %v", err)
	}
	tree, _ := Lookup("dp")
	opts := NewOptions(WithK(2), FallbackTree(nil))
	if err := ValidateOptions(tree.Traits(), opts); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("nil fallback tree satisfied the tree requirement: %v", err)
	}
}

func TestFallbackOptionsSatisfyWithoutRejecting(t *testing.T) {
	// A fallback seed satisfies random's requirement...
	random, _ := Lookup("random")
	if err := ValidateOptions(random.Traits(), NewOptions(WithK(2), FallbackSeed(7))); err != nil {
		t.Fatalf("fallback seed rejected: %v", err)
	}
	// ...without making seed-free solvers reject the call, which an
	// explicit WithSeed would.
	gtp, _ := Lookup("gtp")
	if err := ValidateOptions(gtp.Traits(), NewOptions(WithK(2), FallbackSeed(7))); err != nil {
		t.Fatalf("fallback seed leaked into gtp validation: %v", err)
	}
	if err := ValidateOptions(gtp.Traits(), NewOptions(WithK(2), WithSeed(7))); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("explicit seed on gtp not rejected: %v", err)
	}
	// Same asymmetry for the ambient tree view.
	in := fig1Instance(t)
	tr := fig1Tree(t)
	if _, err := Solve(context.Background(), "gtp", in, NewOptions(WithK(3), FallbackTree(tr))); err != nil {
		t.Fatalf("ambient tree broke a general-topology solve: %v", err)
	}
	if _, err := Solve(context.Background(), "dp", in, NewOptions(WithK(3), FallbackTree(tr))); err != nil {
		t.Fatalf("ambient tree did not satisfy dp: %v", err)
	}
}

func TestOptionMasksAndNames(t *testing.T) {
	o := NewOptions(WithK(3), WithRounds(2), FallbackSeed(9))
	if o.Explicit() != OptK|OptRounds {
		t.Fatalf("explicit mask %v", o.Explicit().Names())
	}
	if o.Provided() != OptK|OptRounds|OptSeed {
		t.Fatalf("provided mask %v", o.Provided().Names())
	}
	names := (OptK | OptSeed | OptCapacity).Names()
	want := []string{"k", "seed", "capacity"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestSolveDispatchMatchesDirectCalls(t *testing.T) {
	// The registry adapters must be thin: dispatching through Solve
	// yields the same plans as calling the solver functions directly.
	in := fig1Instance(t)
	viaRegistry, err := Solve(context.Background(), "gtp-ls", in, NewOptions(WithK(3)))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := GTPWithLocalSearch(context.Background(), in, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if viaRegistry.Bandwidth != direct.Bandwidth ||
		!planEquals(viaRegistry.Plan, direct.Plan.Vertices()...) {
		t.Fatalf("registry %v != direct %v", viaRegistry.Plan, direct.Plan)
	}
	seeded := func() Result {
		r, err := Solve(context.Background(), "random", in,
			NewOptions(WithK(3), WithSeed(42)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if a, b := seeded(), seeded(); !planEquals(a.Plan, b.Plan.Vertices()...) {
		t.Fatalf("seeded dispatch not reproducible: %v vs %v", a.Plan, b.Plan)
	}
}

func TestExactSolversCertifyOptimal(t *testing.T) {
	in := fig1Instance(t)
	for _, name := range []string{"exhaustive", "bnb"} {
		r, err := Solve(context.Background(), name, in, NewOptions(WithK(3)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Optimal || r.Interrupted != nil {
			t.Fatalf("%s ran to completion but did not certify: %+v", name, r)
		}
	}
	// Heuristics never claim optimality.
	r, err := Solve(context.Background(), "gtp", in, NewOptions(WithK(3)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Optimal {
		t.Fatal("greedy heuristic claims optimality")
	}
}
