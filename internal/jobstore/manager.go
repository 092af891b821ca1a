package jobstore

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"duplexity/internal/expt"
	"duplexity/internal/telemetry"
)

// ExecFunc runs one dispatched cell to completion and returns the raw
// result bytes its cache entry holds — what the cell's stream line
// carries. The serve layer implements it by pushing the cell through
// its normal admission → coalesce → pool path, wrapping drain/shutdown
// errors with MarkCancelled so the manager leaves the cell resumable.
type ExecFunc func(d Dispatched) (json.RawMessage, error)

// LookupFunc probes the campaign cache for a cell's raw result bytes
// without executing anything — how resumed jobs rematerialize cells
// their cursor says already finished.
type LookupFunc func(cell expt.CellSpec) (json.RawMessage, bool)

// Config configures a Manager.
type Config struct {
	// Dir is the durable store root; empty disables durability (jobs
	// still run, nothing survives a restart, and a stopped manager
	// counts its pending cells cancelled).
	Dir string
	// Defaults is the quota applied to tenants without an explicit
	// weight; Weights overrides fair-share weight per tenant.
	Defaults Quota
	Weights  map[string]float64
	// MaxInflight caps cells in flight across all tenants.
	MaxInflight int
	// DefaultTTL bounds job state lifetime when the submission names no
	// TTL (default 24h).
	DefaultTTL time.Duration
	// GCInterval is the reap/expire loop period (default 1m).
	GCInterval time.Duration

	Exec   ExecFunc
	Lookup LookupFunc
}

// Job is one submitted job's runtime state: the result lines streamed
// to clients, completion counters, and the notification channel stream
// readers block on. All fields behind mu, except m (the owning
// manager, fixed at creation).
type Job struct {
	m        *Manager
	id       string
	tenant   string
	lane     Lane
	kind     string
	cells    []expt.CellSpec
	deadline time.Time
	ttl      time.Duration
	created  time.Time

	mu        sync.Mutex
	lines     []json.RawMessage // index-aligned; nil until the cell resolves
	ready     int               // prefix of lines released to streams
	completed int
	failed    int
	cancelled int
	state     string // "" while running
	doneAt    time.Time
	dlMet     bool
	finalized bool
	resumed   bool
	notify    chan struct{} // closed and replaced whenever ready/state advances
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Tenant returns the owning tenant.
func (j *Job) Tenant() string { return j.tenant }

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID: j.id, Kind: j.kind, State: j.state, Cells: len(j.cells),
		Completed: j.completed, Failed: j.failed, Cancelled: j.cancelled,
		Tenant: j.tenant, Lane: j.lane, Durable: j.m.store != nil, Resumed: j.resumed,
		DeadlineMet: j.dlMet,
	}
	if st.State == "" {
		st.State = StateRunning
	}
	st.Done = j.finalized
	if !j.deadline.IsZero() {
		st.DeadlineUnixMs = j.deadline.UnixMilli()
	}
	return st
}

// Next returns the result lines from index from onward that are ready,
// whether the job is finished, and a channel that closes on the next
// advance — the same contract the serve stream loop has always used.
func (j *Job) Next(from int) (lines []json.RawMessage, done bool, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < j.ready {
		lines = append(lines, j.lines[from:j.ready]...)
	}
	return lines, j.finalized, j.notify
}

// setLine records a resolved cell's stream line and advances the ready
// prefix past every contiguously resolved cell. Caller holds j.mu.
func (j *Job) setLineLocked(index int, line json.RawMessage) {
	j.lines[index] = line
	for j.ready < len(j.lines) && j.lines[j.ready] != nil {
		j.ready++
	}
}

func (j *Job) wakeLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// encodeLine builds the RawLine for one resolved cell: its raw cache
// bytes (nil for a failed cell) or its error.
func (j *Job) encodeLine(index int, result json.RawMessage, errMsg string) json.RawMessage {
	raw, _ := json.Marshal(RawLine{Index: index, Cell: j.cells[index], Result: result, Error: errMsg})
	return raw
}

// recordLocked builds the job's on-disk header. Caller holds j.mu.
func (j *Job) recordLocked() Record {
	rec := Record{
		ID: j.id, Tenant: j.tenant, Lane: j.lane, Kind: j.kind, Cells: j.cells,
		TTLSec: int64(j.ttl / time.Second), CreatedUnixMs: j.created.UnixMilli(),
		State: j.state, DeadlineMet: j.dlMet,
	}
	if rec.State == "" {
		rec.State = StateRunning
	}
	if !j.deadline.IsZero() {
		rec.DeadlineUnixMs = j.deadline.UnixMilli()
	}
	if !j.doneAt.IsZero() {
		rec.DoneUnixMs = j.doneAt.UnixMilli()
	}
	return rec
}

// Manager owns every job's lifecycle: submission, fair-share dispatch,
// durable progress, resume, and TTL garbage collection.
type Manager struct {
	cfg   Config
	store *Store // nil when Config.Dir == ""
	sched *Scheduler

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
	seq   int

	wg          sync.WaitGroup
	gcStop      chan struct{}
	gcOnceClose sync.Once

	submitted       atomic.Int64
	resumedJobs     atomic.Int64
	completedJobs   atomic.Int64
	failedJobs      atomic.Int64
	expiredJobs     atomic.Int64
	reapedJobs      atomic.Int64
	cellsDispatched atomic.Int64
	deadlineMet     atomic.Int64
	deadlineMissed  atomic.Int64

	histMu    sync.Mutex
	waitIntUs telemetry.Histogram
	waitBatUs telemetry.Histogram
}

// NewManager builds a manager. With a Dir, the durable store is opened
// (created if missing) but nothing is resumed until Start.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Exec == nil {
		return nil, fmt.Errorf("jobstore: Config.Exec is required")
	}
	if cfg.DefaultTTL <= 0 {
		cfg.DefaultTTL = 24 * time.Hour
	}
	if cfg.GCInterval <= 0 {
		cfg.GCInterval = time.Minute
	}
	m := &Manager{
		cfg:    cfg,
		sched:  NewScheduler(cfg.Defaults, cfg.Weights, cfg.MaxInflight),
		jobs:   make(map[string]*Job),
		gcStop: make(chan struct{}),
	}
	if cfg.Dir != "" {
		st, err := OpenStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		m.store = st
		m.seq = st.MaxSeq()
	}
	return m, nil
}

// Start launches the dispatch and GC loops and resumes incomplete
// durable jobs from disk, returning how many were resumed.
func (m *Manager) Start() (resumed int, err error) {
	if m.store != nil {
		resumed, err = m.resume()
		if err != nil {
			return 0, err
		}
	}
	m.wg.Add(1)
	go m.dispatchLoop()
	m.wg.Add(1)
	go m.gcLoop()
	return resumed, nil
}

// Submit validates quota, persists the job (when the manager has a
// store), queues its cells, and returns the live job.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if spec.Tenant == "" {
		spec.Tenant = DefaultTenant
	}
	if spec.Lane == "" {
		spec.Lane = LaneBatch
	}
	if len(spec.Cells) == 0 {
		return nil, fmt.Errorf("jobstore: job has no cells")
	}
	ttl := spec.TTL
	if ttl <= 0 {
		ttl = m.cfg.DefaultTTL
	}
	now := time.Now()

	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("j%04d", m.seq)
	m.mu.Unlock()

	j := &Job{
		m: m, id: id, tenant: spec.Tenant, lane: spec.Lane, kind: spec.Kind,
		cells: spec.Cells, deadline: spec.Deadline,
		ttl: ttl, created: now,
		lines:  make([]json.RawMessage, len(spec.Cells)),
		notify: make(chan struct{}),
	}

	// Persist and register the job before its cells are queued: a cell
	// dispatched and completed at once must find the job in m.jobs, and
	// the record written here must not race finalizeLocked's rewrite of
	// the same file.
	if m.store != nil {
		// No other goroutine can see j yet, so its lock is not needed.
		if err := m.store.Put(j.recordLocked()); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()

	sj := &schedJob{id: id}
	for i, cs := range spec.Cells {
		sj.cells = append(sj.cells, pendingCell{
			jobID: id, index: i, cell: cs, deadline: spec.Deadline, queued: now,
		})
	}
	if err := m.sched.AddJob(spec.Tenant, sj, spec.Lane, false); err != nil {
		m.unregister(id)
		if m.store != nil {
			_ = m.store.Reap(id)
		}
		return nil, err
	}
	m.submitted.Add(1)
	return j, nil
}

// Get returns a job by ID, or nil.
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// List returns job statuses in submission order, optionally filtered
// by tenant ("" = all).
func (m *Manager) List(tenant string) []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j := m.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	var out []JobStatus
	for _, j := range jobs {
		if tenant != "" && j.tenant != tenant {
			continue
		}
		out = append(out, j.Status())
	}
	return out
}

// AdmitCell charges a quota-gated single-cell request against the
// tenant's quota; the returned release must be called when the cell
// resolves.
func (m *Manager) AdmitCell(tenant string) (release func(), err error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if err := m.sched.TryAcquire(tenant); err != nil {
		return nil, err
	}
	m.cellsDispatched.Add(1)
	var once sync.Once
	return func() { once.Do(func() { m.sched.Release(tenant) }) }, nil
}

// dispatchLoop pulls cells from the scheduler and runs each on its own
// goroutine (the admission queue under Exec provides the real
// concurrency limit; the scheduler's global cap bounds the fan-out).
func (m *Manager) dispatchLoop() {
	defer m.wg.Done()
	for {
		d, ok := m.sched.Next()
		if !ok {
			return
		}
		m.cellsDispatched.Add(1)
		m.observeWait(d)
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer m.sched.Release(d.Tenant)
			raw, err := m.cfg.Exec(d)
			m.complete(d, raw, err)
		}()
	}
}

func (m *Manager) observeWait(d Dispatched) {
	us := time.Since(d.Queued).Microseconds()
	if us < 0 {
		us = 0
	}
	m.histMu.Lock()
	if d.Lane == LaneInteractive {
		m.waitIntUs.Observe(uint64(us))
	} else {
		m.waitBatUs.Observe(uint64(us))
	}
	m.histMu.Unlock()
}

// complete records one dispatched cell's outcome.
func (m *Manager) complete(d Dispatched, result json.RawMessage, err error) {
	j := m.Get(d.JobID)
	if j == nil {
		return
	}
	j.mu.Lock()
	switch {
	case err != nil && IsCancelled(err):
		j.cancelled++
		if m.store == nil {
			// Without a store nothing resumes: account the cancelled
			// cell in the stream so a drained job still terminates. With
			// one the cell stays unresolved — the next boot
			// re-dispatches it.
			j.setLineLocked(d.Index, j.encodeLine(d.Index, nil, err.Error()))
		}
	case err != nil:
		j.failed++
		j.setLineLocked(d.Index, j.encodeLine(d.Index, nil, err.Error()))
		if m.store != nil {
			_ = m.store.AppendCursor(j.id, CursorEntry{Index: d.Index, Error: err.Error()})
		}
	default:
		j.completed++
		j.setLineLocked(d.Index, j.encodeLine(d.Index, result, ""))
		if m.store != nil {
			_ = m.store.AppendCursor(j.id, CursorEntry{Index: d.Index})
		}
	}
	m.finalizeLocked(j)
	j.wakeLocked()
	j.mu.Unlock()
}

// finalizeLocked moves a job to its terminal state once every cell is
// accounted for. With a store, cancelled cells do not count — they
// resume — so a drained job simply stays running (stalled) until the
// next boot. Caller holds j.mu.
func (m *Manager) finalizeLocked(j *Job) {
	if j.finalized {
		return
	}
	accounted := j.completed + j.failed
	if m.store == nil {
		accounted += j.cancelled
	}
	if accounted < len(j.cells) {
		return
	}
	j.finalized = true
	j.doneAt = time.Now()
	if j.failed > 0 {
		j.state = StateFailed
	} else if j.state == "" {
		j.state = StateDone
	}
	if !j.deadline.IsZero() {
		if j.state == StateDone && !j.doneAt.After(j.deadline) {
			j.dlMet = true
			m.deadlineMet.Add(1)
		} else {
			m.deadlineMissed.Add(1)
		}
	}
	switch j.state {
	case StateDone:
		m.completedJobs.Add(1)
	case StateFailed:
		m.failedJobs.Add(1)
	}
	if m.store != nil {
		_ = m.store.Put(j.recordLocked())
	}
	m.sched.JobDone(j.tenant)
}

// resume rebuilds jobs from disk. Finished jobs come back read-only
// (their streams rematerialized from the cache where possible);
// unfinished jobs re-enqueue exactly the cells their cursor does not
// cover. Returns how many jobs resumed execution.
func (m *Manager) resume() (int, error) {
	stored, err := m.store.Load()
	if err != nil {
		return 0, err
	}
	resumed := 0
	for _, sj := range stored {
		rec := sj.Record
		j := &Job{
			m: m, id: rec.ID, tenant: rec.Tenant, lane: rec.Lane, kind: rec.Kind,
			cells:   rec.Cells,
			ttl:     time.Duration(rec.TTLSec) * time.Second,
			created: time.UnixMilli(rec.CreatedUnixMs),
			lines:   make([]json.RawMessage, len(rec.Cells)),
			notify:  make(chan struct{}),
			dlMet:   rec.DeadlineMet,
		}
		if j.ttl <= 0 {
			j.ttl = m.cfg.DefaultTTL
		}
		if rec.DeadlineUnixMs != 0 {
			j.deadline = time.UnixMilli(rec.DeadlineUnixMs)
		}
		seen := make(map[int]CursorEntry, len(sj.Cursor))
		for _, e := range sj.Cursor {
			if e.Index >= 0 && e.Index < len(j.cells) {
				seen[e.Index] = e
			}
		}
		var pending []pendingCell
		now := time.Now()
		for i := range j.cells {
			e, ok := seen[i]
			switch {
			case ok && e.Error != "":
				j.failed++
				j.setLineLocked(i, j.encodeLine(i, nil, e.Error))
			case ok:
				if raw, hit := m.lookup(j.cells[i]); hit {
					j.completed++
					j.setLineLocked(i, j.encodeLine(i, raw, ""))
					continue
				}
				// Cursor says finished but the cache entry is gone
				// (wiped or partial write): re-run the cell rather than
				// serve a hole.
				pending = append(pending, pendingCell{jobID: j.id, index: i, cell: j.cells[i], deadline: j.deadline, queued: now})
			default:
				pending = append(pending, pendingCell{jobID: j.id, index: i, cell: j.cells[i], deadline: j.deadline, queued: now})
			}
		}

		terminal := rec.State == StateDone || rec.State == StateFailed || rec.State == StateExpired
		if terminal {
			j.state = rec.State
			j.finalized = true
			if rec.DoneUnixMs != 0 {
				j.doneAt = time.UnixMilli(rec.DoneUnixMs)
			} else {
				j.doneAt = j.created
			}
			// A finished cell whose cache entry vanished cannot be
			// re-run (the job is closed); surface the gap explicitly.
			for i := range j.cells {
				if j.lines[i] == nil {
					j.setLineLocked(i, j.encodeLine(i, nil, "result evicted from cache"))
				}
			}
		} else {
			j.resumed = true
			if len(pending) == 0 {
				m.finalizeViaLock(j)
			} else {
				sjq := &schedJob{id: j.id, cells: pending}
				_ = m.sched.AddJob(j.tenant, sjq, j.lane, true)
				resumed++
				m.resumedJobs.Add(1)
			}
		}

		m.mu.Lock()
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.mu.Unlock()
	}
	return resumed, nil
}

// finalizeViaLock finalizes a job that reached terminal state outside
// the dispatch path (resume with full cursor coverage). It first
// charges the scheduler one queued job, which resume never did, to
// balance the JobDone inside finalizeLocked.
func (m *Manager) finalizeViaLock(j *Job) {
	_ = m.sched.AddJob(j.tenant, &schedJob{id: j.id}, j.lane, true)
	j.mu.Lock()
	m.finalizeLocked(j)
	j.wakeLocked()
	j.mu.Unlock()
}

func (m *Manager) lookup(cs expt.CellSpec) (json.RawMessage, bool) {
	if m.cfg.Lookup == nil {
		return nil, false
	}
	return m.cfg.Lookup(cs)
}

// gcLoop periodically reaps finished jobs past their TTL and expires
// unfinished jobs that outlived theirs.
func (m *Manager) gcLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-m.gcStop:
			return
		case now := <-t.C:
			m.gcOnce(now)
		}
	}
}

// gcOnce runs one GC sweep at the given instant (exposed for tests).
func (m *Manager) gcOnce(now time.Time) {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, id := range m.order {
		if j := m.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()

	for _, j := range jobs {
		j.mu.Lock()
		ttl := j.ttl
		if ttl <= 0 {
			ttl = m.cfg.DefaultTTL
		}
		switch {
		case j.finalized && now.Sub(j.doneAt) > ttl:
			j.mu.Unlock()
			m.reap(j)
		case !j.finalized && now.Sub(j.created) > ttl:
			// Expire: drop pending cells, close the job. In-flight cells
			// may still land; complete() tolerates them (state stays
			// expired, counters advance harmlessly).
			j.state = StateExpired
			j.finalized = true
			j.doneAt = now
			for i := range j.cells {
				if j.lines[i] == nil {
					j.setLineLocked(i, j.encodeLine(i, nil, "job expired"))
				}
			}
			rec := j.recordLocked()
			j.wakeLocked()
			j.mu.Unlock()
			m.sched.CancelJob(j.tenant, j.id)
			m.sched.JobDone(j.tenant)
			m.expiredJobs.Add(1)
			if m.store != nil {
				_ = m.store.Put(rec)
			}
		default:
			j.mu.Unlock()
		}
	}
}

func (m *Manager) reap(j *Job) {
	m.unregister(j.id)
	if m.store != nil {
		_ = m.store.Reap(j.id)
	}
	m.reapedJobs.Add(1)
}

// unregister removes a job from the in-memory index.
func (m *Manager) unregister(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.jobs, id)
	for i, o := range m.order {
		if o == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// Stop closes the scheduler, cancels still-pending cells when there is
// no store (with one they stay on disk for the next boot), and waits —
// bounded by ctx — for in-flight dispatch goroutines to record their
// outcomes.
func (m *Manager) Stop(ctx context.Context) error {
	m.gcOnceClose.Do(func() { close(m.gcStop) })
	rest := m.sched.Close()
	if m.store == nil {
		for _, d := range rest {
			m.complete(d, nil, MarkCancelled(ErrClosed))
		}
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobstore: stop interrupted: %w", ctx.Err())
	}
}

// Stats is the manager's metrics snapshot.
type Stats struct {
	Jobs            int                    `json:"jobs"`
	Submitted       int64                  `json:"submitted"`
	Resumed         int64                  `json:"resumed"`
	Completed       int64                  `json:"completed"`
	Failed          int64                  `json:"failed"`
	Expired         int64                  `json:"expired"`
	Reaped          int64                  `json:"reaped"`
	CellsDispatched int64                  `json:"cells_dispatched"`
	DeadlineMet     int64                  `json:"deadline_met"`
	DeadlineMissed  int64                  `json:"deadline_missed"`
	Tenants         map[string]TenantStats `json:"tenants,omitempty"`
}

// Stats snapshots counters and per-tenant scheduler state.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	n := len(m.jobs)
	m.mu.Unlock()
	return Stats{
		Jobs:            n,
		Submitted:       m.submitted.Load(),
		Resumed:         m.resumedJobs.Load(),
		Completed:       m.completedJobs.Load(),
		Failed:          m.failedJobs.Load(),
		Expired:         m.expiredJobs.Load(),
		Reaped:          m.reapedJobs.Load(),
		CellsDispatched: m.cellsDispatched.Load(),
		DeadlineMet:     m.deadlineMet.Load(),
		DeadlineMissed:  m.deadlineMissed.Load(),
		Tenants:         m.sched.Snapshot(),
	}
}

// WaitHistograms copies the per-lane scheduler-wait histograms
// (microseconds) into dst via merge — the serve metrics exporter's
// hook.
func (m *Manager) WaitHistograms(interactive, batch *telemetry.Histogram) {
	m.histMu.Lock()
	defer m.histMu.Unlock()
	interactive.Merge(&m.waitIntUs)
	batch.Merge(&m.waitBatUs)
}
