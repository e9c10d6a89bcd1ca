package server

import (
	"context"
	"errors"
	"sync"
	"time"

	stbusgen "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// jobState is the lifecycle of one design job.
type jobState int

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobFailed
)

func (s jobState) String() string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	case jobFailed:
		return "failed"
	}
	return "unknown"
}

// jobFlightCapacity is the per-job flight-recorder ring size: every
// event of a typical paper design (tens to a few hundred) with room to
// spare. The ring's storage grows with the events a job journals, so a
// retained job keeps only what it recorded. A stream that falls further
// behind is told what it missed.
const jobFlightCapacity = 4096

// job is one admitted design request. Telemetry is per-job: the flight
// recorder journals this solve only and feeds this job's SSE streams —
// the process-global instruments see only aggregate metrics, so
// concurrent jobs never interleave in a client's stream.
type job struct {
	id  string
	req *designRequest

	// rec journals the solve for /v1/jobs/{id}/events.
	rec *obs.FlightRecorder

	// done closes when the job reaches a terminal state, ending its
	// event streams with a result frame and a bye.
	done chan struct{}

	mu       sync.Mutex
	state    jobState
	created  time.Time
	started  time.Time
	finished time.Time
	design   *core.Design     // trace jobs
	result   *stbusgen.Result // app jobs
	err      error
}

func (j *job) setRunning(now time.Time) {
	j.mu.Lock()
	j.state = jobRunning
	j.started = now
	j.mu.Unlock()
}

func (j *job) finish(now time.Time, design *core.Design, result *stbusgen.Result, err error) {
	j.mu.Lock()
	j.finished = now
	j.design = design
	j.result = result
	j.err = err
	if err != nil {
		j.state = jobFailed
	} else {
		j.state = jobDone
	}
	j.mu.Unlock()
	close(j.done)
}

// terminal reports whether the job has finished (done or failed).
func (j *job) terminal() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// failureReason classifies a job error for the API response: clients
// branch on the reason string, not on Go error identity.
func failureReason(err error) (reason string, status int) {
	switch {
	case errors.Is(err, core.ErrInfeasible):
		return "infeasible", 422
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout", 504
	case errors.Is(err, core.ErrCanceled):
		return "canceled", 503
	case errors.Is(err, core.ErrSearchLimit):
		return "search_limit", 422
	}
	return "internal", 500
}
