package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"tdmd"
)

// ErrJobsFull is returned when the job store is at capacity and every
// held job is still unfinished, so nothing can be evicted.
var ErrJobsFull = errors.New("serve: job store full")

// JobState is the lifecycle phase a job reports to pollers.
type JobState string

// The job states. A job is queued until a worker picks its flight up,
// running until the solve returns, then done or failed; canceled wins
// over everything once the client deletes the job.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is one async solve: a ticket on the engine plus the labels its
// responses render, read from the submission once at creation. A job
// never holds the problem, so a finished job costs its answer, not its
// flow set. Jobs hold no goroutines and no timers — state is derived
// on demand from the flight.
type Job struct {
	ID        string
	Algorithm tdmd.Algorithm
	K         int
	RawDemand float64
	Ticket    *Ticket
	Created   time.Time
	canceled  atomic.Bool
}

// newJob wraps an admitted submission's ticket. created is taken
// before admission, so a cache replay never settles before its job
// was created.
func newJob(sub Submission, ticket *Ticket, created time.Time) *Job {
	return &Job{
		ID:        newJobID(),
		Algorithm: sub.Algorithm,
		K:         sub.K,
		RawDemand: sub.Problem.Instance().RawDemand(),
		Ticket:    ticket,
		Created:   created,
	}
}

// State derives the job's lifecycle phase from its flight.
func (j *Job) State() JobState {
	if j.canceled.Load() {
		return JobCanceled
	}
	if out, ok := j.Ticket.Outcome(); ok {
		if out.Err != nil {
			return JobFailed
		}
		return JobDone
	}
	if j.Ticket.Running() {
		return JobRunning
	}
	return JobQueued
}

// Finished reports whether the job can be evicted: its outcome is
// settled and no poller will lose a pending solve.
func (j *Job) Finished() bool {
	switch j.State() {
	case JobDone, JobFailed, JobCanceled:
		return true
	}
	return false
}

// Cancel marks the job canceled and releases its ticket; if this job
// was the solve's last waiter the flight itself is canceled.
// Idempotent.
func (j *Job) Cancel() {
	if !j.canceled.Swap(true) {
		j.Ticket.Release()
	}
}

// newJobID returns a 16-hex-char random id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; ids only
		// need uniqueness, so fall back to a timestamp.
		return hex.EncodeToString(b[:]) + time.Now().Format("150405.000000000")
	}
	return hex.EncodeToString(b[:])
}

// JobStore is a capacity-bounded id→job table. At capacity, the
// oldest finished job is evicted to admit a new one; if every job is
// still unfinished the add is refused (ErrJobsFull) — the store never
// grows without bound and never silently drops a live solve.
type JobStore struct {
	mu    sync.Mutex
	cap   int
	jobs  map[string]*Job
	order []*Job // insertion order, for eviction scans
}

func newJobStore(capacity int) *JobStore {
	return &JobStore{cap: capacity, jobs: make(map[string]*Job, capacity)}
}

// Add registers the job, evicting the oldest finished one if needed.
func (s *JobStore) Add(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) >= s.cap && !s.evictOldestFinished() {
		return ErrJobsFull
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	jobsStored.Set(int64(len(s.order)))
	return nil
}

// evictOldestFinished drops the first finished job in insertion
// order; false when none is evictable. Caller holds the lock.
func (s *JobStore) evictOldestFinished() bool {
	for i, j := range s.order {
		if j.Finished() {
			delete(s.jobs, j.ID)
			s.order = append(s.order[:i], s.order[i+1:]...)
			return true
		}
	}
	return false
}

// Get returns the job with the given id, or nil.
func (s *JobStore) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Len reports the stored job count.
func (s *JobStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}
