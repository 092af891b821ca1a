// Package jobstore is duplexityd's multi-tenant campaign control
// plane: a durable job store (submitted jobs journaled to disk and
// resumed across daemon restarts), a weighted fair-share scheduler
// with per-tenant quotas and priority lanes, and TTL-driven garbage
// collection of finished job state.
//
// The package sits between the HTTP surface (internal/serve) and the
// admission queue: serve translates requests into JobSpecs and hands
// the Manager an ExecFunc that pushes one cell through its normal
// cache probe → admission → coalesce → pool path. The Manager decides *which* cell
// goes next (fair share across tenants, interactive lane before
// batch), the admission queue still decides *whether* the daemon can
// take it right now.
//
// Durability deliberately reuses the campaign engine's persistence:
// the job record and its per-cell cursor capture only *which* cells of
// *which* job finished; the bytes of each result live solely in the
// content-addressed cache. A restarted daemon rematerializes finished
// cells from the cache (byte-identical, no re-simulation) and
// re-dispatches only the cells the crash interrupted.
package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"duplexity/internal/expt"
)

// Lane is a job's priority lane.
type Lane string

const (
	// LaneInteractive is the deadline lane: its cells are dispatched
	// before any batch cell and carry a placement deadline that the
	// fleet coordinator turns into Hurry-up-style earlier hedging.
	LaneInteractive Lane = "interactive"
	// LaneBatch is the default throughput lane: no deadline, scheduled
	// purely by weighted fair share.
	LaneBatch Lane = "batch"
)

// DefaultTenant is the tenant jobs land under when the request names
// none. It is a real tenant like any other: same default quota, same
// fair-share weight.
const DefaultTenant = "default"

// ParseLane maps an API string to a Lane ("" means batch).
func ParseLane(s string) (Lane, error) {
	switch s {
	case "", string(LaneBatch):
		return LaneBatch, nil
	case string(LaneInteractive):
		return LaneInteractive, nil
	}
	return "", fmt.Errorf("unknown lane %q (want %q or %q)", s, LaneInteractive, LaneBatch)
}

// JobSpec is a submission: what to run, for whom, how urgently, and
// whether it must survive a daemon restart.
type JobSpec struct {
	Tenant string
	Lane   Lane
	Kind   string
	Cells  []expt.CellSpec
	// Deadline applies to interactive-lane jobs: every cell inherits it
	// as a placement deadline, and the job counts as deadline-met only
	// if it finishes (without failures) before it.
	Deadline time.Time
	// TTL bounds the job's state lifetime: a finished job is reaped TTL
	// after completion, an unfinished one is expired TTL after
	// submission. Zero means the manager default.
	TTL time.Duration
	// Durable jobs are journaled to disk and resumed after a restart;
	// ephemeral jobs (the legacy /v1/campaigns path) die with the
	// process.
	Durable bool
}

// Job states. A job is "running" from submission until every cell is
// accounted for, then "done" or "failed"; "expired" marks a job the GC
// cancelled because it outlived its TTL before finishing.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	StateExpired = "expired"
)

// JobStatus is the API-facing summary of one job. Field names and
// omission rules are shared with the legacy campaign status payload so
// existing stream consumers keep working.
type JobStatus struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	State     string `json:"state"`
	Cells     int    `json:"cells"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed,omitempty"`
	Cancelled int    `json:"cancelled,omitempty"`
	Done      bool   `json:"done"`

	Tenant         string `json:"tenant,omitempty"`
	Lane           Lane   `json:"lane,omitempty"`
	Durable        bool   `json:"durable,omitempty"`
	Resumed        bool   `json:"resumed,omitempty"`
	DeadlineUnixMs int64  `json:"deadline_unix_ms,omitempty"`
	DeadlineMet    bool   `json:"deadline_met,omitempty"`
}

// CellLine is one ephemeral-job result row: the streamed NDJSON shape
// the /v1/campaigns API has always used, with the decoded result (and
// its cached flag) inline.
type CellLine struct {
	Index  int                `json:"index"`
	Cell   expt.CellSpec      `json:"cell"`
	Result *expt.ServedResult `json:"result,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// RawLine is one durable-job result row. Result carries the cache
// entry's raw result bytes — no cached flag, no wall time — so the
// stream of a job resumed after a crash (cells rematerialized from the
// cache) is byte-identical to the stream of an uninterrupted run.
type RawLine struct {
	Index  int             `json:"index"`
	Cell   expt.CellSpec   `json:"cell"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// Quota bounds one tenant's footprint.
type Quota struct {
	// Weight is the tenant's fair-share weight; dispatching one cell
	// advances the tenant's virtual time by 1/Weight, and the scheduler
	// always picks the eligible tenant with the smallest virtual time.
	Weight float64
	// MaxInflight caps the tenant's concurrently executing cells
	// (scheduler dispatches plus quota-gated single-cell requests).
	MaxInflight int
	// MaxQueuedJobs caps the tenant's unfinished jobs; submissions
	// beyond it are shed with a QuotaError (HTTP 429 upstream).
	MaxQueuedJobs int
}

// QuotaError reports a submission shed by a per-tenant quota.
type QuotaError struct {
	Tenant string
	What   string
	Limit  int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %q over quota: %s limit %d reached", e.Tenant, e.What, e.Limit)
}

// ErrClosed reports a submission or dispatch against a stopped
// manager (the daemon is draining).
var ErrClosed = errors.New("jobstore: manager stopped")

// cancelledError marks an exec outcome as a drain/shutdown
// cancellation rather than a real failure, so the manager leaves the
// cell pending (durable jobs resume it) instead of recording a
// failure.
type cancelledError struct{ err error }

func (e *cancelledError) Error() string { return e.err.Error() }
func (e *cancelledError) Unwrap() error { return e.err }

// MarkCancelled wraps an exec error so the manager treats the cell as
// cancelled-not-failed. The serve layer applies it to drain and
// context-cancellation errors.
func MarkCancelled(err error) error { return &cancelledError{err: err} }

// IsCancelled reports whether err was wrapped by MarkCancelled.
func IsCancelled(err error) bool {
	var ce *cancelledError
	return errors.As(err, &ce)
}
