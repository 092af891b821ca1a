package serve

import (
	"context"
	"encoding/json"
	"errors"

	"duplexity/internal/expt"
	"duplexity/internal/jobstore"
	"duplexity/internal/telemetry"
)

// JobStatus is the API-facing summary of one job, shared with the
// jobstore package.
type JobStatus = jobstore.JobStatus

// errNoRaw reports a cell resolved without its cache-entry-level form,
// which every raw caller (/v1/exec and job lines) ships.
var errNoRaw = errors.New("cell resolved without raw entry")

// runJobCell is the job manager's ExecFunc: it pushes one dispatched
// cell through the server's normal cache probe → admission → coalesce →
// pool path with backpressure and returns the raw result bytes the
// job's stream line carries. Drain and shutdown outcomes are wrapped
// with MarkCancelled so the manager treats the cell as interrupted-
// not-failed: counted cancelled on a daemon without a job directory,
// left pending for the next boot's resume on one with it.
func (s *Server) runJobCell(d jobstore.Dispatched) (json.RawMessage, error) {
	res, _, err := s.execCellOpts(context.Background(), d.Cell, execOpts{
		block:    true,
		tc:       telemetry.TraceContext{Campaign: d.JobID},
		deadline: d.Deadline,
		queuedAt: d.Queued,
		raw:      true,
	})
	switch {
	case err != nil && (errors.Is(err, errDraining) || errors.Is(err, context.Canceled)):
		return nil, jobstore.MarkCancelled(err)
	case err != nil:
		return nil, err
	case res.Raw == nil:
		return nil, errNoRaw
	}
	return res.Raw.Result, nil
}

// lookupCell is the job manager's LookupFunc: a read-only probe of the
// campaign cache for a finished cell's raw result bytes, used to
// rematerialize resumed jobs without re-simulating anything.
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
