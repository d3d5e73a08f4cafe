package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"tdmd"
)

// trackedSub builds a gtp Submission on the line topology whose
// problem closes the returned channel once the garbage collector frees
// it. Only the Submission refers to the problem, so after the caller
// hands it off, anything still reaching the problem is a retainer.
func trackedSub(t *testing.T, rate int) (Submission, <-chan struct{}) {
	t.Helper()
	p, err := lineSpec(rate).Build()
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(p, func(*tdmd.Problem) { close(collected) })
	return Submission{Problem: p, Algorithm: tdmd.AlgGTP, K: 1}, collected
}

// waitCollected runs garbage collections until the tracked problem's
// finalizer has fired, failing after a bounded wait.
func waitCollected(t *testing.T, collected <-chan struct{}, holder string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("problem still reachable from %s", holder)
		}
	}
}

// TestServeFinishedTicketReleasesProblem: a finished flight keeps its
// answer, not its problem, even while a ticket on it is never
// released.
func TestServeFinishedTicketReleasesProblem(t *testing.T) {
	e := testEngine(t, EngineConfig{Workers: 1, Queue: 2})
	sub, collected := trackedSub(t, 61)
	tk, err := e.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if out, err := tk.Wait(ctx); err != nil || out.Err != nil || out.Source != SourceFresh {
		t.Fatalf("wait: err=%v outcome=%+v", err, out)
	}
	waitCollected(t, collected, "held ticket")
	if out, ok := tk.Outcome(); !ok || out.Err != nil || !out.Result.Feasible {
		t.Fatalf("outcome after collection: ok=%v %+v", ok, out)
	}
	tk.Release()
}

// TestServeDoneJobReleasesProblem: a done job stays in the store and
// renders its full result, raw demand included, after its problem has
// been collected.
func TestServeDoneJobReleasesProblem(t *testing.T) {
	s, srv := testServer(t, Config{Workers: 1, Queue: 2})
	sub, collected := trackedSub(t, 62)
	raw := sub.Problem.Instance().RawDemand()
	created := time.Now()
	tk, err := s.Engine().Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	job := newJob(sub, tk, created)
	if err := s.jobs.Add(job); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	waitCollected(t, collected, "done job")

	r, err := http.Get(srv.URL + "/v1/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var jr jobResponse
	if err := json.NewDecoder(r.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.State != JobDone || jr.Result == nil || jr.Result.RawDemand != raw || !jr.Result.Feasible {
		t.Fatalf("done job after collection: %+v result=%+v", jr, jr.Result)
	}
}

// TestServeFinishedFlightContextDone: finishing a flight cancels its
// context, so it leaves the engine base context's children even when
// no waiter ever releases, and drops the running-only incumbent.
func TestServeFinishedFlightContextDone(t *testing.T) {
	e := testEngine(t, EngineConfig{Workers: 1, Queue: 2})
	p, err := lineSpec(63).Build()
	if err != nil {
		t.Fatal(err)
	}
	tk, err := e.Submit(Submission{Problem: p, Algorithm: "serve-test-lockprobe"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if out, err := tk.Wait(ctx); err != nil || out.Err != nil {
		t.Fatalf("wait: err=%v outcome=%+v", err, out)
	}
	if err := tk.fl.ctx.Err(); err == nil {
		t.Fatal("flight context still live after the solve returned")
	}
	if inc := tk.Incumbent(); inc != nil {
		t.Fatalf("finished flight still holds incumbent %+v", inc)
	}
	tk.Release()
}

// TestServeDoneJobElapsedFrozen: a settled job reports elapsed_ms from
// creation to completion, so repeated polls return identical bodies —
// for a fresh solve and for a cache replay alike.
func TestServeDoneJobElapsedFrozen(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 1, Queue: 2})
	get := func(id string) []byte {
		t.Helper()
		r, err := http.Get(srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, want := range []Source{SourceFresh, SourceCache} {
		resp := post(t, srv, "/v1/jobs", solveRequest{Spec: fig1Spec(t), Algorithm: "gtp", K: 3})
		var created jobResponse
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		deadline := time.Now().Add(10 * time.Second)
		var first []byte
		for {
			first = get(created.ID)
			var jr jobResponse
			if err := json.Unmarshal(first, &jr); err != nil {
				t.Fatal(err)
			}
			if jr.State == JobDone {
				if jr.Source != want || jr.ElapsedMS < 0 || jr.Result.ElapsedMS != jr.ElapsedMS {
					t.Fatalf("%s job: %s", want, first)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job never finished: %s", first)
			}
			time.Sleep(2 * time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		if second := get(created.ID); !bytes.Equal(first, second) {
			t.Fatalf("%s job polls differ:\n%s%s", want, first, second)
		}
	}
}
