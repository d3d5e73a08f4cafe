package lint

import (
	"strings"
	"testing"
)

// Stub context / net/http / placement packages for the ctxflow
// fixtures. The analyzer resolves everything by package path + name,
// so minimal shapes suffice.
const (
	fakeContext = `package context

type Context interface {
	Done() <-chan struct{}
	Err() error
}

func Background() Context { return nil }
func TODO() Context       { return nil }
`
	fakeHTTP = `package http

type Request struct{}

type ResponseWriter interface{ WriteHeader(code int) }
`
	// fakePlacementDecl declares the Result type the entry-point rule
	// keys on, plus a wrapper struct that embeds it.
	fakePlacementDecl = `package placement

import "context"

type Result struct {
	Bandwidth float64
	Feasible  bool
}

type WrappedResult struct {
	Result
	Nodes int
}

func Good(ctx context.Context, k int) (Result, error)            { return Result{}, nil }
func GoodWrapped(ctx context.Context) (WrappedResult, error) { return WrappedResult{}, nil }
func Prune(k int) (int, error)                                   { return k, nil }
func helperResult(k int) Result                                  { return Result{} }
`
)

func TestCtxFlowFlagsRootContextsInPlacement(t *testing.T) {
	a := analyzerByName(t, "ctxflow")
	got := runOn(t, a,
		srcPkg{"context", fakeContext},
		srcPkg{"tdmd/internal/placement", `package placement

import "context"

type Result struct{}

func Solve(ctx context.Context) (Result, error) {
	bg := context.Background()
	_ = bg
	_ = context.TODO()
	return Result{}, nil
}
`})
	wantFindings(t, a, got, 2)
	if !strings.Contains(got[0].Message, "context.Background") {
		t.Errorf("first finding should name Background: %v", got[0])
	}
	if !strings.Contains(got[1].Message, "context.TODO") {
		t.Errorf("second finding should name TODO: %v", got[1])
	}
}

func TestCtxFlowFlagsEntryPointWithoutContext(t *testing.T) {
	a := analyzerByName(t, "ctxflow")
	got := runOn(t, a,
		srcPkg{"context", fakeContext},
		srcPkg{"tdmd/internal/placement", `package placement

type Result struct{}

type WrappedResult struct {
	Result
	Nodes int
}

func Bare(k int) (Result, error)               { return Result{}, nil }
func BareWrapped(k int) (WrappedResult, error) { return WrappedResult{}, nil }
`})
	wantFindings(t, a, got, 2)
	for _, f := range got {
		if !strings.Contains(f.Message, "context.Context") {
			t.Errorf("finding should demand a context first parameter: %v", f)
		}
	}
}

func TestCtxFlowAcceptsConformingPlacement(t *testing.T) {
	a := analyzerByName(t, "ctxflow")
	// Good/GoodWrapped take ctx first; Prune returns no Result;
	// helperResult is unexported. Nothing to report.
	got := runOn(t, a,
		srcPkg{"context", fakeContext},
		srcPkg{"tdmd/internal/placement", fakePlacementDecl})
	wantFindings(t, a, got, 0)
}

func TestCtxFlowFlagsRootContextInServeHandler(t *testing.T) {
	a := analyzerByName(t, "ctxflow")
	got := runOn(t, a,
		srcPkg{"context", fakeContext},
		srcPkg{"net/http", fakeHTTP},
		srcPkg{"tdmd/cmd/tdmdserve", `package main

import (
	"context"
	"net/http"
)

func handleSolve(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background()
	_ = ctx
}

// main takes no request, so a root context here is legitimate (it is
// where the process context is born).
func main() {
	_ = context.Background()
}
`})
	wantFindings(t, a, got, 1)
	if !strings.Contains(got[0].Message, "r.Context()") {
		t.Errorf("serve finding should point at r.Context(): %v", got[0])
	}
}

func TestCtxFlowIgnoresOtherPackages(t *testing.T) {
	a := analyzerByName(t, "ctxflow")
	// The same pattern outside placement/serve packages is fine: the
	// facade and CLIs legitimately create root contexts.
	got := runOn(t, a,
		srcPkg{"context", fakeContext},
		srcPkg{"tdmd/internal/netsim", `package netsim

import "context"

func Model() context.Context { return context.Background() }
`})
	wantFindings(t, a, got, 0)
}
