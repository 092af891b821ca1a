package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
	"duplexity/internal/jobstore"
	"duplexity/internal/telemetry"
)

// CellRequest is the POST /v1/cells body: one cell plus an optional
// per-request deadline. A request whose deadline expires while the cell
// is still queued abandons it (the cell is cancelled and journaled
// incomplete if nobody else wants it); a deadline that expires during
// execution only abandons the response — the result still lands in the
// cache.
type CellRequest struct {
	expt.CellSpec
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// JobRequest is the POST /v1/jobs body: a campaign expansion plus
// multi-tenant scheduling directives. The tenant may also arrive via
// the X-Duplexity-Tenant header; the body wins when both are set.
type JobRequest struct {
	expt.CampaignSpec
	Tenant string `json:"tenant,omitempty"`
	// Lane is "interactive" (deadline lane, dispatched first) or
	// "batch" (the default).
	Lane string `json:"lane,omitempty"`
	// DeadlineMs is the job's deadline relative to submission;
	// interactive jobs without one get the server default.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// TTLSec bounds the job's state lifetime (0: server default).
	TTLSec int64 `json:"ttl_sec,omitempty"`
}

// JobAccepted is the POST /v1/jobs response: the job's identity and
// where to stream its results from. Durable reports whether the daemon
// persists jobs (it has a job directory).
type JobAccepted struct {
	ID      string `json:"id"`
	Cells   int    `json:"cells"`
	Tenant  string `json:"tenant"`
	Lane    string `json:"lane"`
	Durable bool   `json:"durable"`
	Stream  string `json:"stream"`
}

// Queuez is the GET /v1/queuez body: the dispatch-relevant slice of a
// worker's state, polled by fleet coordinators for backpressure and
// verified once at registration for world identity.
type Queuez struct {
	Draining      bool       `json:"draining"`
	Workers       int        `json:"workers"`
	QueueCapacity int        `json:"queue_capacity"`
	QueueLength   int        `json:"queue_length"`
	InFlight      int        `json:"in_flight"`
	RetryAfterSec int        `json:"retry_after_sec"`
	World         expt.World `json:"world"`
}

// Healthz is the GET /v1/healthz body.
type Healthz struct {
	Status string `json:"status"` // "ok" | "draining"
}

// Statz is the GET /v1/statz body: admission/coalescing/latency metrics
// (log2 histograms with p50/p99), the campaign engine's cache
// accounting, and the job table.
type Statz struct {
	Draining      bool               `json:"draining"`
	Workers       int                `json:"workers"`
	QueueCapacity int                `json:"queue_capacity"`
	QueueLength   int                `json:"queue_length"`
	Campaign      campaign.Summary   `json:"campaign"`
	Metrics       telemetry.Snapshot `json:"metrics"`
	Jobs          []JobStatus        `json:"jobs,omitempty"`
	// JobStats is the job manager's lifecycle accounting, including
	// per-tenant scheduler state (weight, vtime, in-flight, queued).
	JobStats jobstore.Stats `json:"job_stats"`
}

// Tracez is the GET /v1/tracez body: the most recent stitched cell
// traces (oldest first) plus the lifetime total, or disabled=true when
// the daemon runs with tracing off.
type Tracez struct {
	Disabled bool                          `json:"disabled,omitempty"`
	Total    uint64                        `json:"total"`
	Traces   []telemetry.CellTraceSnapshot `json:"traces,omitempty"`
}

// ErrorResponse is every non-2xx body: a message, the invalid fields
// for 400s, and a retry hint for 429s.
type ErrorResponse struct {
	Error         string            `json:"error"`
	Fields        []expt.FieldError `json:"fields,omitempty"`
	RetryAfterSec int               `json:"retry_after_sec,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// maxBodyBytes caps a request body.
const maxBodyBytes = 1 << 20

// decodeJSON parses a bounded request body, rejecting unknown fields so
// typos fail loudly at the boundary instead of silently defaulting.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing request body: %w", err)
	}
	return nil
}

// writeExecError maps an admission/execution error onto the API:
// structured 400s for validation, 429 + Retry-After for shed load, 503
// for drain, 504 for expired deadlines, 500 for failed cells.
func writeExecError(w http.ResponseWriter, err error) {
	var ve *expt.ValidationError
	if errors.As(err, &ve) {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid request", Fields: ve.Fields})
		return
	}
	var se *shedError
	if errors.As(err, &se) {
		sec := int(math.Ceil(se.retryAfter.Seconds()))
		w.Header().Set("Retry-After", fmt.Sprintf("%d", sec))
		writeJSON(w, se.status, ErrorResponse{Error: se.msg, RetryAfterSec: sec})
		return
	}
	var qe *jobstore.QuotaError
	if errors.As(err, &qe) {
		// Over-quota is shed load, tenant-scoped: same 429 + Retry-After
		// contract as a full queue.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: qe.Error(), RetryAfterSec: 1})
		return
	}
	switch {
	case errors.Is(err, jobstore.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: errDraining.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "deadline exceeded before the cell completed"})
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
}
