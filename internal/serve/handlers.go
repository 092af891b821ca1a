package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"duplexity/internal/expt"
	"duplexity/internal/jobstore"
	"duplexity/internal/telemetry"
)

// Multi-tenant request headers: which tenant a request bills against
// and which priority lane it rides.
const (
	HeaderTenant = "X-Duplexity-Tenant"
	HeaderLane   = "X-Duplexity-Lane"
)

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cells", s.handleCell)
	mux.HandleFunc("POST /v1/exec", s.handleExec)
	mux.HandleFunc("GET /v1/queuez", s.handleQueuez)
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmitCampaign)
	mux.HandleFunc("GET /v1/campaigns", s.handleListCampaigns)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStreamJobResults)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleStreamJobResults)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statz", s.handleStatz)
	mux.HandleFunc("GET /v1/metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /v1/tracez", s.handleTracez)
	return mux
}

// handleCell is the synchronous single-cell path: validate at the
// boundary, rate-limit, then cache probe → admission → coalesce → pool,
// answering with the served result or a structured rejection.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	var req CellRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	// Validate before spending any admission budget: a malformed cell
	// must fail with a 400 naming its fields, never deep inside a worker.
	if err := req.CellSpec.Validate(); err != nil {
		writeExecError(w, err)
		return
	}
	if err := s.admitRate(); err != nil {
		writeExecError(w, err)
		return
	}
	// Requests naming a tenant or lane opt into the multi-tenant quota
	// gate: the cell charges the tenant's in-flight quota (429 when
	// over) and interactive-lane cells inherit a placement deadline.
	var deadline time.Time
	if tenant, laneHdr := r.Header.Get(HeaderTenant), r.Header.Get(HeaderLane); tenant != "" || laneHdr != "" {
		lane, err := jobstore.ParseLane(laneHdr)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		release, err := s.mgr.AdmitCell(tenant)
		if err != nil {
			writeExecError(w, err)
			return
		}
		defer release()
		if lane == jobstore.LaneInteractive {
			deadline = time.Now().Add(s.cfg.InteractiveDeadline)
		}
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	tc, _ := telemetry.TraceFromHeaders(r.Header)
	res, _, err := s.execCellOpts(ctx, req.CellSpec, execOpts{tc: tc, deadline: deadline})
	if err != nil {
		writeExecError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleExec is the fleet-internal execution path: a coordinator
// dispatches one cell and receives the cache-entry-level result (digest,
// cached flag, wall time, raw result JSON) so it can store an identical
// cache entry on its side. It shares the cache probe, admission,
// coalescing, and the pool with /v1/cells — hedged duplicates landing
// on the same worker coalesce
// onto one flight, and a full queue sheds with 429 + Retry-After, which
// is the coordinator's backpressure signal. The token bucket is not
// consulted: the coordinator's per-worker window is the rate control.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req CellRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if err := req.CellSpec.Validate(); err != nil {
		writeExecError(w, err)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	tc, _ := telemetry.TraceFromHeaders(r.Header)
	res, tr, err := s.execCellOpts(ctx, req.CellSpec, execOpts{tc: tc, raw: true})
	if err != nil {
		writeExecError(w, err)
		return
	}
	if res.Raw == nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "cell resolved without raw entry"})
		return
	}
	// Ship this request's recorded spans so the coordinator can adopt
	// them as children of its remote span. The Raw struct is shared by
	// every coalesced waiter — attach to a copy, never mutate it.
	out := *res.Raw
	out.Stages = tr.Spans()
	writeJSON(w, http.StatusOK, out)
}

// handleQueuez reports the worker's dispatch-relevant state in one small
// body: queue depth and capacity, in-flight cells, a retry hint, and the
// (model, scale, seed) world identity a coordinator must verify before
// routing cells here.
func (s *Server) handleQueuez(w http.ResponseWriter, r *http.Request) {
	s.fmu.Lock()
	inflight := len(s.flights)
	s.fmu.Unlock()
	writeJSON(w, http.StatusOK, Queuez{
		Draining:      s.Draining(),
		Workers:       s.cfg.Workers,
		QueueCapacity: cap(s.runq),
		QueueLength:   len(s.runq),
		InFlight:      inflight,
		RetryAfterSec: int(s.retryAfter().Seconds()),
		World:         s.suite.World(),
	})
}

// handleSubmitCampaign expands a batch submission into cells and starts
// an asynchronous ephemeral job (dies with the process, like the
// original campaign API); results stream from GET /v1/campaigns/{id}.
func (s *Server) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	var spec expt.CampaignSpec
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	cells, err := spec.Expand()
	if err != nil {
		writeExecError(w, err)
		return
	}
	if s.Draining() {
		writeExecError(w, errDraining)
		return
	}
	j, err := s.mgr.Submit(jobstore.JobSpec{
		Tenant: r.Header.Get(HeaderTenant),
		Kind:   spec.Kind,
		Cells:  cells,
	})
	if err != nil {
		writeExecError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, CampaignAccepted{
		ID: j.ID(), Cells: len(cells), Stream: "/v1/campaigns/" + j.ID(),
	})
}

func (s *Server) handleListCampaigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List(""))
}

// handleSubmitJob is the multi-tenant submission path: a campaign
// expansion plus tenant, lane, deadline, and TTL directives. Jobs are
// durable whenever the daemon has a job directory — they survive a
// restart and resume exactly where they stopped.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	cells, err := req.CampaignSpec.Expand()
	if err != nil {
		writeExecError(w, err)
		return
	}
	lane, err := jobstore.ParseLane(req.Lane)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if s.Draining() {
		writeExecError(w, errDraining)
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = r.Header.Get(HeaderTenant)
	}
	spec := jobstore.JobSpec{
		Tenant:  tenant,
		Lane:    lane,
		Kind:    req.Kind,
		Cells:   cells,
		TTL:     time.Duration(req.TTLSec) * time.Second,
		Durable: s.durable,
	}
	if req.DeadlineMs > 0 {
		spec.Deadline = time.Now().Add(time.Duration(req.DeadlineMs) * time.Millisecond)
	} else if lane == jobstore.LaneInteractive {
		spec.Deadline = time.Now().Add(s.cfg.InteractiveDeadline)
	}
	j, err := s.mgr.Submit(spec)
	if err != nil {
		writeExecError(w, err)
		return
	}
	st := j.Status()
	writeJSON(w, http.StatusAccepted, JobAccepted{
		ID: j.ID(), Cells: len(cells), Tenant: st.Tenant, Lane: string(st.Lane),
		Durable: s.durable, Stream: "/v1/jobs/" + j.ID() + "/results",
	})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List(r.URL.Query().Get("tenant")))
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.mgr.Get(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job id"})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleDrain asks the supervising process to drain: the handler only
// raises the signal (DrainRequested); the daemon's signal loop runs the
// actual Drain so HTTP shutdown ordering stays in one place.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.RequestDrain()
	writeJSON(w, http.StatusAccepted, Healthz{Status: "draining"})
}

// handleStreamJobResults streams a job's per-cell results as they
// complete, in submission order: NDJSON lines by default, SSE frames
// when the client asks for text/event-stream. Completed lines replay
// first (byte-stable), then the stream follows live completions and
// ends with a status summary.
func (s *Server) handleStreamJobResults(w http.ResponseWriter, r *http.Request) {
	j := s.mgr.Get(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job id"})
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	writeLine := func(event string, data []byte) {
		if sse {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		} else {
			w.Write(data)
			w.Write([]byte("\n"))
		}
	}

	sent := 0
	for {
		lines, done, wait := j.Next(sent)
		for _, l := range lines {
			writeLine("cell", l)
			sent++
		}
		if done {
			final, _ := json.Marshal(j.Status())
			writeLine("done", final)
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, Healthz{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, Healthz{Status: "ok"})
}

// handleMetricsz emits the daemon's metrics in the Prometheus text
// exposition format: the serve-layer counters and latency histogram,
// the campaign engine's cache accounting, and the tracez ring total.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.PrometheusContentType)
	_ = telemetry.WritePrometheus(w, s.metricsSnapshot(), "duplexity", nil)
}

// handleTracez reports the most recent cell traces (oldest first) for
// timeline inspection; the duplexityd tracez subcommand renders them as
// text waterfalls.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeJSON(w, http.StatusOK, Tracez{Disabled: true})
		return
	}
	writeJSON(w, http.StatusOK, Tracez{
		Total:  s.traces.Total(),
		Traces: s.traces.Snapshot(),
	})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	st := Statz{
		Draining:      s.Draining(),
		Workers:       s.cfg.Workers,
		QueueCapacity: cap(s.runq),
		QueueLength:   len(s.runq),
		Metrics:       s.metricsSnapshot(),
		Jobs:          s.mgr.List(""),
		JobStats:      s.mgr.Stats(),
	}
	if eng := s.suite.Engine(); eng != nil {
		// Per-cell timings grow without bound in a long-lived daemon;
		// statz reports the aggregate accounting only.
		st.Campaign = eng.Counters()
	}
	writeJSON(w, http.StatusOK, st)
}
