package serve

import (
	"context"
	"encoding/json"
	"errors"

	"duplexity/internal/expt"
	"duplexity/internal/jobstore"
	"duplexity/internal/telemetry"
)

// CellLine is one streamed result line of an ephemeral campaign job —
// the NDJSON shape the /v1/campaigns API has always used, now owned by
// the jobstore package.
type CellLine = jobstore.CellLine

// JobStatus is the API-facing summary of one job (campaign or
// multi-tenant), shared with the jobstore package.
type JobStatus = jobstore.JobStatus

// runJobCell is the job manager's ExecFunc: it pushes one dispatched
// cell through the server's normal cache probe → admission → coalesce →
// pool path with backpressure, asking for the raw entry durable job
// streams carry. Drain and shutdown outcomes are wrapped with
// MarkCancelled so the manager treats the cell as interrupted-not-
// failed: ephemeral jobs account it cancelled, durable jobs leave it
// pending for the next boot's resume.
func (s *Server) runJobCell(d jobstore.Dispatched) (expt.ServedResult, error) {
	res, _, err := s.execCellOpts(context.Background(), d.Cell, execOpts{
		block:    true,
		tc:       telemetry.TraceContext{Campaign: d.JobID},
		deadline: d.Deadline,
		queuedAt: d.Queued,
		raw:      true,
	})
	if err != nil && (errors.Is(err, errDraining) || errors.Is(err, context.Canceled)) {
		err = jobstore.MarkCancelled(err)
	}
	return res, err
}

// lookupCell is the job manager's LookupFunc: a read-only probe of the
// campaign cache for a finished cell's raw result bytes, used to
// rematerialize resumed durable jobs without re-simulating anything.
func (s *Server) lookupCell(cs expt.CellSpec) (json.RawMessage, bool) {
	eng := s.suite.Engine()
	if eng == nil {
		return nil, false
	}
	key, err := s.suite.ServedKey(cs)
	if err != nil {
		return nil, false
	}
	ent, ok := eng.Lookup(key)
	if !ok {
		return nil, false
	}
	return ent.Result, true
}
