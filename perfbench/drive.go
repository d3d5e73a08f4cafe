package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tdmd/internal/stats"
)

// op is one attempted operation and what came back. For the open loop
// due is the scheduled send time; otherwise it is the send time.
type op struct {
	req    *request
	due    time.Time
	sent   time.Time
	accept time.Time // bulk jobs: the 202 arrived
	done   time.Time
	status int
	body   []byte
	err    error
}

func (o *op) latency() time.Duration { return o.done.Sub(o.due) }

// newClient returns a client holding at most conns connections to the
// server, all kept alive between requests.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends body and reads the whole response.
func post(ctx context.Context, client *http.Client, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return do(client, req)
}

func get(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(client, req)
}

func do(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// solve sends one /api/solve request and records it.
func solve(ctx context.Context, client *http.Client, base string, o *op) {
	o.sent = time.Now()
	o.status, o.body, o.err = post(ctx, client, base+"/api/solve", "application/json", o.req.body)
	o.done = time.Now()
}

// closedLoop runs clients senders, each sending its next request only
// after the previous answer, until d has passed or next runs dry. It
// returns the operations and the time from start until the last sender
// finished.
func closedLoop(ctx context.Context, client *http.Client, base string, clients int, d time.Duration,
	next func() *request) ([]*op, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var ops []*op
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*op
			for time.Now().Before(deadline) {
				r := next()
				if r == nil {
					break
				}
				o := &op{req: r}
				solve(ctx, client, base, o)
				o.due = o.sent
				mine = append(mine, o)
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return ops, time.Since(start)
}

// poissonSchedule returns n arrival offsets of a Poisson process at
// rate per second, drawn from the run seed.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(stats.DeriveSeed(seed, streamSchedule)))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends reqs[i] at start+schedule[i] from senders goroutines.
// A request is timed from when it was due, so a stall that delays
// later sends is charged to them; sent−due is the generator's own
// lateness.
func openLoop(ctx context.Context, client *http.Client, base string, senders int, schedule []time.Duration,
	reqs []*request) []*op {
	ops := make([]*op, len(schedule))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(schedule) {
					return
				}
				o := &op{req: reqs[i], due: start.Add(schedule[i])}
				time.Sleep(time.Until(o.due))
				solve(ctx, client, base, o)
				ops[i] = o
			}
		}()
	}
	wg.Wait()
	return ops
}

// jobView is the part of a /v1/jobs response bulkLoop reads.
type jobView struct {
	ID     string  `json:"id"`
	State  string  `json:"state"`
	Result *answer `json:"result"`
	Error  string  `json:"error"`
}

// activeJob is the job the poller watches; finished is closed once a
// poll shows it done or failed, with view holding that poll's answer.
type activeJob struct {
	op       *op
	id       string
	view     jobView
	finished chan struct{}
}

// bulkLoop uploads the jobs next hands out one at a time, while a
// poller watches the current job on a Poisson schedule of pollRate
// polls per second. A job's time runs from the
// start of its upload to the first poll that shows it done; each poll
// is an open-loop operation timed from its due time. The uploader is
// idle while a job runs and the poller idle while none does, so at
// most one request is ever in flight.
func bulkLoop(ctx context.Context, client *http.Client, base string, seed int64, pollRate float64,
	next func() *request) (jobs, polls []*op, elapsed time.Duration, err error) {
	var current atomic.Pointer[activeJob]
	stop := make(chan struct{})
	pollsDone := make(chan []*op)
	go func() { pollsDone <- poll(ctx, client, base, seed, pollRate, &current, stop) }()

	start := time.Now()
	for r := next(); r != nil; r = next() {
		o := &op{req: r}
		jobs = append(jobs, o)
		o.sent = time.Now()
		o.due = o.sent
		status, body, perr := post(ctx, client, base+"/v1/jobs?algorithm="+string(r.alg), "application/x-ndjson", r.body)
		o.accept = time.Now()
		o.status, o.body, o.err = status, body, perr
		if perr != nil || status != http.StatusAccepted {
			o.done = o.accept
			continue
		}
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil || v.ID == "" {
			o.err = fmt.Errorf("job create response without an id: %s", body)
			o.done = o.accept
			continue
		}
		aj := &activeJob{op: o, id: v.ID, finished: make(chan struct{})}
		current.Store(aj)
		select {
		case <-aj.finished:
		case <-time.After(time.Minute):
			err = fmt.Errorf("job %s never finished", v.ID)
		}
		current.Store(nil)
		if err != nil {
			break
		}
		o.body, _ = json.Marshal(aj.view.Result)
		o.status = http.StatusOK
		if aj.view.State != "done" {
			o.err = fmt.Errorf("job %s ended %s: %s", v.ID, aj.view.State, aj.view.Error)
		}
	}
	elapsed = time.Since(start)
	close(stop)
	polls = <-pollsDone
	return jobs, polls, elapsed, err
}

// poll is bulkLoop's poller. Polls due while no job is active are not
// sent and not counted.
func poll(ctx context.Context, client *http.Client, base string, seed int64, rate float64,
	current *atomic.Pointer[activeJob], stop <-chan struct{}) []*op {
	rng := rand.New(rand.NewSource(stats.DeriveSeed(seed, streamSchedule, 1)))
	var ops []*op
	due := time.Now()
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		select {
		case <-stop:
			return ops
		case <-time.After(time.Until(due)):
		}
		aj := current.Load()
		if aj == nil {
			continue
		}
		o := &op{req: aj.op.req, due: due, sent: time.Now()}
		o.status, o.body, o.err = get(ctx, client, base+"/v1/jobs/"+aj.id)
		o.done = time.Now()
		ops = append(ops, o)
		if o.err != nil || o.status != http.StatusOK {
			continue
		}
		var v jobView
		if err := json.Unmarshal(o.body, &v); err != nil {
			o.err = err
			continue
		}
		if v.State == "done" || v.State == "failed" || v.State == "canceled" {
			if current.CompareAndSwap(aj, nil) {
				aj.view = v
				aj.op.done = o.done
				close(aj.finished)
			}
		}
	}
}
