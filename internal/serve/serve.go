// Package serve exposes the experiment-campaign engine as a
// long-running HTTP/JSON service: the daemon form of the one-shot
// duplexity CLI, built for the paper's own serving regime — bursty,
// latency-sensitive submissions over a pool of heavyweight simulation
// cells.
//
// The request path is cache probe → admission → coalesce → campaign
// pool:
//
//   - Cache probe: a warm hit is answered on the request's own
//     goroutine with one read of its cache entry, so it never waits in
//     the queue or wakes a pool worker. It is still rate-limited,
//     registered with drain, and counted like any other hit. Only a
//     miss goes on.
//   - Admission: a token bucket rate-limits open-loop submissions and a
//     bounded queue caps memory; when either saturates the server sheds
//     load with 429 + Retry-After instead of queueing unboundedly.
//     Per-request deadlines cancel cells that are still queued when the
//     deadline expires; cancelled cells are journaled as incomplete.
//   - Coalesce: concurrent identical submissions (same SHA-256 cache
//     key) share one in-flight simulation with singleflight semantics;
//     afterwards the content-addressed on-disk cache answers repeats.
//   - Pool: a fixed worker pool executes the missed cells through the
//     campaign engine — the same cache, journal, and accounting as CLI
//     batches, so served results are byte-identical to CLI runs.
//
// One bad cell cannot take the daemon down: worker panics are caught,
// journaled, and surfaced as request errors while sibling cells keep
// running. SIGTERM-style drain (Drain) refuses new work, finishes every
// admitted cell, and flushes a campaign checkpoint.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
	"duplexity/internal/jobstore"
	"duplexity/internal/telemetry"
)

// Config assembles a Server.
type Config struct {
	// Suite is the experiment harness the daemon serves: its scale,
	// seed, and cache directory fix the (model, scale, seed) world all
	// requests resolve against. Required, and Suite.Err() must be nil.
	Suite *expt.Suite
	// Workers is the simulation pool width; <= 0 means one per CPU.
	Workers int
	// QueueDepth bounds the submission queue; <= 0 means 64. When the
	// queue is full, open-loop submissions are shed with 429.
	QueueDepth int
	// RatePerSec enables a token-bucket rate limit on POST /v1/cells
	// (<= 0 disables). Burst is the bucket size (<= 0 means max(1, rate)).
	RatePerSec float64
	Burst      int
	// DefaultTimeout is the per-request deadline for POST /v1/cells when
	// the request doesn't set one; <= 0 means 10 minutes.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps request bodies; <= 0 means 1 MiB.
	MaxBodyBytes int64
	// TraceDepth sizes the GET /v1/tracez recent-cell ring; <= 0 means
	// telemetry.DefaultTraceDepth.
	TraceDepth int
	// DisableTracing turns per-cell stage tracing off entirely: no
	// spans, no trace ring, /v1/tracez reports disabled. Results and
	// cache bytes are identical either way.
	DisableTracing bool

	// JobDir is where durable job records and cursors live; "" means
	// <cache dir>/jobs. With no cache directory either, jobs fall back
	// to ephemeral (nothing survives a restart).
	JobDir string
	// JobTTL bounds job state lifetime: finished jobs are reaped JobTTL
	// after completion, unfinished ones expired JobTTL after
	// submission; <= 0 means 24h.
	JobTTL time.Duration
	// JobGCInterval is the reap/expire sweep period; <= 0 means 1m.
	JobGCInterval time.Duration
	// TenantInflight caps one tenant's concurrently executing cells;
	// <= 0 means 4x Workers.
	TenantInflight int
	// TenantQueuedJobs caps one tenant's unfinished jobs; <= 0 means 16.
	TenantQueuedJobs int
	// TenantWeights overrides the fair-share weight per tenant name
	// (default weight 1).
	TenantWeights map[string]float64
	// SchedInflight caps scheduler-dispatched cells in flight across all
	// tenants; <= 0 means max(16, 4x Workers).
	SchedInflight int
	// InteractiveDeadline is the placement deadline granted to
	// interactive-lane work that names none; <= 0 means 30s.
	InteractiveDeadline time.Duration
}

// work is one enqueued leader cell.
type work struct {
	flight *flight
	cell   expt.Resolved
	// enq stamps the admission-queue entry; the worker closes the
	// admission span against it at pickup.
	enq time.Time
	// deadline is the placement deadline inherited from an
	// interactive-lane job (zero for everything else); it rides down to
	// the engine so a fleet remote can hedge earlier as it nears.
	deadline time.Time
}

// Server is the serving layer: an http.Handler plus the admission,
// coalescing, and execution machinery behind it.
type Server struct {
	cfg   Config
	suite *expt.Suite

	// run executes one resolved cell the cache probe missed; swapped by
	// tests to decouple admission/coalescing behavior from multi-second
	// simulations. The trace is nil when tracing is disabled; the
	// deadline is zero for batch work.
	run func(*expt.Resolved, *telemetry.CellTrace, time.Time) (expt.ServedResult, error)

	bucket *tokenBucket
	m      metrics

	// traces is the /v1/tracez ring; nil when tracing is disabled.
	traces *telemetry.TraceRing

	runq    chan *work
	quit    chan struct{}
	drainCh chan struct{}

	// admitMu serializes admission against drain: admitters hold the
	// read side across the draining check and the inflight.Add, so
	// Drain's Wait can never race a late Add.
	admitMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	wg sync.WaitGroup

	fmu     sync.Mutex
	flights map[string]*flight

	// mgr owns every campaign job's lifecycle: durable storage,
	// fair-share dispatch, resume, and TTL garbage collection.
	mgr *jobstore.Manager
	// durable reports whether job state survives restarts (a job
	// directory resolved at startup).
	durable bool
	// resumed counts the incomplete durable jobs re-admitted at startup.
	resumed int

	// drainReq closes when POST /v1/drain asks the supervising process
	// to begin a graceful drain.
	drainReq     chan struct{}
	drainReqOnce sync.Once

	drainOnce sync.Once
	quitOnce  sync.Once

	mux *http.ServeMux
}

// New builds a server and starts its worker pool. Callers must Drain
// (or abandon the process) to stop it.
func New(cfg Config) (*Server, error) {
	if cfg.Suite == nil {
		return nil, fmt.Errorf("serve: Config.Suite is required")
	}
	if err := cfg.Suite.Err(); err != nil {
		return nil, fmt.Errorf("serve: suite: %w", err)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.TenantInflight <= 0 {
		cfg.TenantInflight = 4 * cfg.Workers
	}
	if cfg.TenantQueuedJobs <= 0 {
		cfg.TenantQueuedJobs = 16
	}
	if cfg.SchedInflight <= 0 {
		cfg.SchedInflight = 4 * cfg.Workers
		if cfg.SchedInflight < 16 {
			cfg.SchedInflight = 16
		}
	}
	if cfg.InteractiveDeadline <= 0 {
		cfg.InteractiveDeadline = 30 * time.Second
	}
	s := &Server{
		cfg:      cfg,
		suite:    cfg.Suite,
		runq:     make(chan *work, cfg.QueueDepth),
		quit:     make(chan struct{}),
		drainCh:  make(chan struct{}),
		drainReq: make(chan struct{}),
		flights:  make(map[string]*flight),
	}
	s.run = s.suite.RunResolved
	if !cfg.DisableTracing {
		s.traces = telemetry.NewTraceRing(cfg.TraceDepth)
	}
	if cfg.RatePerSec > 0 {
		burst := cfg.Burst
		if burst <= 0 {
			burst = int(cfg.RatePerSec)
			if burst < 1 {
				burst = 1
			}
		}
		s.bucket = newTokenBucket(cfg.RatePerSec, burst)
	}
	jobDir := cfg.JobDir
	if jobDir == "" {
		if eng := cfg.Suite.Engine(); eng != nil {
			if d := eng.CacheDir(); d != "" {
				jobDir = filepath.Join(d, "jobs")
			}
		}
	}
	s.durable = jobDir != ""
	mgr, err := jobstore.NewManager(jobstore.Config{
		Dir: jobDir,
		Defaults: jobstore.Quota{
			Weight:        1,
			MaxInflight:   cfg.TenantInflight,
			MaxQueuedJobs: cfg.TenantQueuedJobs,
		},
		Weights:     cfg.TenantWeights,
		MaxInflight: cfg.SchedInflight,
		DefaultTTL:  cfg.JobTTL,
		GCInterval:  cfg.JobGCInterval,
		Exec:        s.runJobCell,
		Lookup:      s.lookupCell,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: job store: %w", err)
	}
	s.mgr = mgr
	s.mux = s.routes()
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Resume after the pool is live: re-admitted cells flow through the
	// normal admission path immediately.
	resumed, err := mgr.Start()
	if err != nil {
		return nil, fmt.Errorf("serve: job resume: %w", err)
	}
	s.resumed = resumed
	return s, nil
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// Resumed reports how many incomplete durable jobs the server
// re-admitted at startup.
func (s *Server) Resumed() int { return s.resumed }

// Jobs exposes the job manager (CLI status plumbing and tests).
func (s *Server) Jobs() *jobstore.Manager { return s.mgr }

// RequestDrain signals DrainRequested; the process supervising the
// server (the daemon's signal loop) performs the actual Drain.
func (s *Server) RequestDrain() { s.drainReqOnce.Do(func() { close(s.drainReq) }) }

// DrainRequested closes when an API client POSTs /v1/drain.
func (s *Server) DrainRequested() <-chan struct{} { return s.drainReq }

// Drain gracefully stops the server: refuse new work, finish every
// admitted cell, stop the pool, and flush the campaign journal
// checkpoint. Safe to call more than once; ctx bounds how long to wait
// for in-flight cells (expiry leaves the pool running so a later Drain
// can retry).
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	s.draining = true
	s.admitMu.Unlock()
	s.drainOnce.Do(func() { close(s.drainCh) })

	// Stop the job manager first: pending ephemeral cells cancel,
	// pending durable cells stay on disk for the next boot's resume, and
	// in-flight dispatches run to completion through the pool below.
	if err := s.mgr.Stop(ctx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with cells in flight: %w", ctx.Err())
	}
	s.quitOnce.Do(func() { close(s.quit) })
	s.wg.Wait()
	if eng := s.suite.Engine(); eng != nil {
		if err := eng.Checkpoint(false); err != nil {
			return fmt.Errorf("serve: drain checkpoint: %w", err)
		}
	}
	return nil
}

// execOpts parameterizes one pass through the admission path.
type execOpts struct {
	// block selects backpressure (campaign/job cells) over shedding
	// (the open-loop /v1/cells path).
	block bool
	// tc is the inherited trace context (zero: this daemon is the
	// trace root).
	tc telemetry.TraceContext
	// deadline is the interactive-lane placement deadline (zero for
	// batch work).
	deadline time.Time
	// queuedAt, when set, backdates the cell's trace to its scheduler
	// enqueue so the wall time covers fair-share wait, recorded as a
	// "sched" span.
	queuedAt time.Time
	// raw asks for the cache-entry-level result (ServedResult.Raw) on a
	// cache-probe hit too; the client-facing /v1/cells path leaves it
	// unset and decodes the entry straight into the typed payload.
	raw bool
}

// execCellOpts runs one validated cell through cache probe → admission
// → coalesce → pool. Blocking submissions (campaign cells) wait for
// queue space with backpressure; non-blocking ones (the open-loop
// /v1/cells and /v1/exec paths) are shed with 429 when the queue is
// full. The returned *telemetry.CellTrace is nil when tracing is
// disabled, and its snapshot has already been pushed to the tracez ring
// by return time.
func (s *Server) execCellOpts(ctx context.Context, spec expt.CellSpec, o execOpts) (expt.ServedResult, *telemetry.CellTrace, error) {
	var zero expt.ServedResult
	cell, err := s.suite.Resolve(spec)
	if err != nil {
		return zero, nil, err
	}
	digest := cell.Digest
	var tr *telemetry.CellTrace
	if s.traces != nil {
		if !o.queuedAt.IsZero() {
			tr = telemetry.NewCellTraceAt(o.tc, digest, o.queuedAt)
			tr.Stage(telemetry.StageSched, o.queuedAt)
		} else {
			tr = telemetry.NewCellTrace(o.tc, digest)
		}
	}

	// Register the request before releasing admitMu so Drain's
	// inflight.Wait can never miss it, whether the cache answers it
	// below or it goes on to the pool as a flight's leader.
	s.admitMu.RLock()
	if s.draining {
		s.admitMu.RUnlock()
		s.m.shedDraining.Add(1)
		s.finishTrace(tr, false, errDraining)
		return zero, tr, errDraining
	}
	s.inflight.Add(1)
	s.admitMu.RUnlock()

	// Cache probe: a warm hit is answered here, on the request's
	// goroutine. It never queued, so its admission span is empty.
	admitted := time.Now()
	if res, ok := s.suite.ServeHit(&cell, tr, o.raw); ok {
		s.inflight.Done()
		tr.Record(telemetry.StageSpan{Stage: telemetry.StageAdmission, StartUnixNs: admitted.UnixNano()})
		s.m.completed.Add(1)
		s.m.cacheHits.Add(1)
		s.m.observeLatency(uint64(time.Since(admitted).Microseconds()))
		s.finishTrace(tr, true, nil)
		return res, tr, nil
	}

	// Coalesce: join an identical in-flight cell instead of submitting a
	// duplicate. Followers consume no queue slot and no worker.
	s.fmu.Lock()
	if f, ok := s.flights[digest]; ok {
		f.waiters++
		leader := f.tr
		s.fmu.Unlock()
		s.inflight.Done()
		s.m.coalesceHits.Add(1)
		wait := time.Now()
		res, err := s.await(ctx, f)
		if tr != nil {
			// The follower's own time went to waiting; the leader's spans
			// are adopted as children so the timeline still shows where
			// the shared flight spent the microseconds.
			tr.Stage(telemetry.StageCoalesce, wait)
			tr.SetJoined(leader.TraceID())
			tr.Adopt(leader.Spans(), "")
		}
		s.finishTrace(tr, res.Cached, err)
		return res, tr, err
	}
	f := &flight{key: cell.Key, digest: digest, waiters: 1, done: make(chan struct{}), tr: tr}
	s.flights[digest] = f
	s.fmu.Unlock()
	// The leader keeps the request's inflight registration until its
	// worker finishes (or the enqueue below fails). The enqueue itself
	// happens outside admitMu: a blocked backpressure send while holding
	// it would deadlock Drain.
	s.m.coalesceLeaders.Add(1)

	enqueued := false
	if o.block {
		select {
		case s.runq <- &work{flight: f, cell: cell, enq: time.Now(), deadline: o.deadline}:
			enqueued = true
		case <-s.drainCh:
			err = errDraining
			s.m.shedDraining.Add(1)
		case <-ctx.Done():
			err = ctx.Err()
		}
	} else {
		select {
		case s.runq <- &work{flight: f, cell: cell, enq: time.Now(), deadline: o.deadline}:
			enqueued = true
		default:
			err = &shedError{status: http.StatusTooManyRequests, retryAfter: s.retryAfter(), msg: "submission queue full"}
			s.m.shedQueueFull.Add(1)
		}
	}
	if !enqueued {
		s.inflight.Done()
		// The flight never reached the pool: fail every follower that
		// coalesced onto it (their result will never come).
		s.failFlight(f, err)
		s.finishTrace(tr, false, err)
		return zero, tr, err
	}
	s.m.admitted.Add(1)
	res, err := s.await(ctx, f)
	s.finishTrace(tr, res.Cached, err)
	return res, tr, err
}

// finishTrace closes a cell's trace and records it on the tracez ring.
// Each requester (leader or coalesced follower) records its own trace
// exactly once, at return.
func (s *Server) finishTrace(tr *telemetry.CellTrace, cached bool, err error) {
	if tr == nil {
		return
	}
	tr.SetCached(cached)
	tr.SetError(err)
	s.traces.Add(tr.Finish())
}

// await waits for a flight to resolve, or abandons it on deadline
// expiry. An abandoned flight still runs if any other waiter remains;
// when the last waiter leaves before execution starts, the worker
// cancels the cell and journals it incomplete.
func (s *Server) await(ctx context.Context, f *flight) (expt.ServedResult, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		s.fmu.Lock()
		f.waiters--
		remaining := f.waiters
		s.fmu.Unlock()
		if remaining > 0 {
			// A follower abandoning a flight other waiters still want:
			// the leader's cell keeps running untouched, but this
			// request accepted work it will never see — journal its own
			// cancellation so the audit trail is per-request, not
			// per-flight. The sole-waiter case journals in runFlight
			// when the worker cancels the cell itself.
			s.m.followerCancelled.Add(1)
			if eng := s.suite.Engine(); eng != nil {
				eng.JournalIncomplete(f.key, campaign.StatusCancelled)
			}
		}
		return expt.ServedResult{}, ctx.Err()
	}
}

// failFlight resolves a never-enqueued flight with an admission error.
func (s *Server) failFlight(f *flight, err error) {
	s.fmu.Lock()
	delete(s.flights, f.digest)
	s.fmu.Unlock()
	f.err = err
	close(f.done)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Prefer queued work over quit so drain finishes every admitted
		// cell before the pool exits.
		select {
		case w := <-s.runq:
			s.runFlight(w)
			continue
		default:
		}
		select {
		case w := <-s.runq:
			s.runFlight(w)
		case <-s.quit:
			return
		}
	}
}

// runFlight executes one leader cell with panic isolation.
func (s *Server) runFlight(w *work) {
	defer s.inflight.Done()
	f := w.flight

	s.fmu.Lock()
	if f.waiters == 0 {
		// Every requester's deadline expired while the cell was queued:
		// cancel instead of simulating into the void, and journal the
		// cancellation so the daemon's audit trail shows accepted-but-
		// unfinished work.
		delete(s.flights, f.digest)
		s.fmu.Unlock()
		// Journal before counting, so whoever sees the counter move
		// finds the journal line too.
		if eng := s.suite.Engine(); eng != nil {
			eng.JournalIncomplete(f.key, campaign.StatusCancelled)
		}
		s.m.cancelled.Add(1)
		f.err = context.DeadlineExceeded
		close(f.done)
		return
	}
	s.fmu.Unlock()

	// Queue wait ends here: the admission span runs from enqueue to
	// worker pickup.
	f.tr.Stage(telemetry.StageAdmission, w.enq)
	start := time.Now()
	res, err := s.safeRun(&w.cell, f, w.deadline)
	elapsed := time.Since(start)

	s.fmu.Lock()
	delete(s.flights, f.digest)
	s.fmu.Unlock()
	f.res, f.err = res, err
	close(f.done)

	if err != nil {
		s.m.failed.Add(1)
		return
	}
	s.m.completed.Add(1)
	if res.Cached {
		s.m.cacheHits.Add(1)
	}
	s.m.observeLatency(uint64(elapsed.Microseconds()))
}

// safeRun is the panic-isolation boundary: a panicking cell becomes a
// request error and a journal record, never a dead daemon.
func (s *Server) safeRun(cell *expt.Resolved, f *flight, deadline time.Time) (res expt.ServedResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell panicked: %v", r)
			if eng := s.suite.Engine(); eng != nil {
				eng.JournalIncomplete(f.key, campaign.StatusPanic)
			}
			s.m.panics.Add(1)
		}
	}()
	return s.run(cell, f.tr, deadline)
}

// retryAfter estimates when a shed submission is worth retrying: the
// queued work divided across the pool, using the engine's measured
// mean simulation time (1s when nothing has been measured yet).
func (s *Server) retryAfter() time.Duration {
	mean := 1.0
	if eng := s.suite.Engine(); eng != nil {
		if st := eng.Counters(); st.Misses > 0 {
			mean = st.SimWallSeconds / float64(st.Misses)
		}
	}
	est := time.Duration(float64(len(s.runq)) * mean / float64(s.cfg.Workers) * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > 60*time.Second {
		est = 60 * time.Second
	}
	return est
}
