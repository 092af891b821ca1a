package jobstore

import (
	"sync"
	"time"

	"duplexity/internal/expt"
)

// Dispatched is one cell handed out by the scheduler, with everything
// the executor needs to run and account for it.
type Dispatched struct {
	JobID  string
	Tenant string
	Lane   Lane
	Index  int
	Cell   expt.CellSpec
	// Deadline is the placement deadline inherited from the job (zero
	// for batch cells).
	Deadline time.Time
	// Queued is when the cell became dispatchable; dispatch minus
	// Queued is the scheduler wait recorded as the "sched" trace stage.
	Queued time.Time
}

// pendingCell is one not-yet-dispatched cell of a queued job.
type pendingCell struct {
	jobID    string
	index    int
	cell     expt.CellSpec
	deadline time.Time
	queued   time.Time
}

// schedJob is a job's pending-cell queue inside the scheduler.
type schedJob struct {
	id    string
	cells []pendingCell
}

// tenantState is one tenant's scheduling bookkeeping. Lane queues hold
// jobs in FIFO order; cells within a job dispatch in index order.
type tenantState struct {
	name        string
	quota       Quota
	vtime       float64
	inflight    int
	jobs        int // unfinished jobs, for MaxQueuedJobs
	interactive []*schedJob
	batch       []*schedJob
	dispatched  int64
}

func (t *tenantState) laneQueue(l Lane) *[]*schedJob {
	if l == LaneInteractive {
		return &t.interactive
	}
	return &t.batch
}

func (t *tenantState) hasPending() bool {
	return len(t.interactive) > 0 || len(t.batch) > 0
}

// Scheduler is the weighted fair-share, two-lane cell scheduler.
//
// Dispatch order: interactive lane strictly before batch; within a
// lane, the eligible tenant (pending work, under its in-flight quota)
// with the smallest virtual time wins, and each dispatch advances that
// tenant's virtual time by 1/weight — classic weighted fair queueing,
// so over any saturated interval tenants receive dispatches in
// proportion to their weights regardless of how many jobs they pile
// up. A global in-flight cap bounds how far the scheduler runs ahead
// of the admission queue.
type Scheduler struct {
	mu        sync.Mutex
	cond      *sync.Cond
	defaults  Quota
	weights   map[string]float64
	maxGlobal int
	global    int
	tenants   map[string]*tenantState
	closed    bool
}

// NewScheduler builds a scheduler. defaults applies to tenants without
// an entry in weights; maxGlobal caps total in-flight cells.
func NewScheduler(defaults Quota, weights map[string]float64, maxGlobal int) *Scheduler {
	if defaults.Weight <= 0 {
		defaults.Weight = 1
	}
	if defaults.MaxInflight <= 0 {
		defaults.MaxInflight = 4
	}
	if defaults.MaxQueuedJobs <= 0 {
		defaults.MaxQueuedJobs = 16
	}
	if maxGlobal <= 0 {
		maxGlobal = 16
	}
	s := &Scheduler{
		defaults:  defaults,
		weights:   weights,
		maxGlobal: maxGlobal,
		tenants:   make(map[string]*tenantState),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// tenant returns (creating if needed) the named tenant's state.
func (s *Scheduler) tenant(name string) *tenantState {
	t, ok := s.tenants[name]
	if !ok {
		q := s.defaults
		if w, ok := s.weights[name]; ok && w > 0 {
			q.Weight = w
		}
		t = &tenantState{name: name, quota: q}
		s.tenants[name] = t
	}
	return t
}

// minActiveVtime returns the smallest virtual time among tenants with
// work in the system (pending or in flight).
func (s *Scheduler) minActiveVtime() (float64, bool) {
	min, found := 0.0, false
	for _, t := range s.tenants {
		if t.inflight == 0 && !t.hasPending() {
			continue
		}
		if !found || t.vtime < min {
			min, found = t.vtime, true
		}
	}
	return min, found
}

// AddJob queues a job's cells for dispatch. force bypasses the
// MaxQueuedJobs quota (resume after restart must always re-admit).
func (s *Scheduler) AddJob(tenant string, job *schedJob, lane Lane, force bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	t := s.tenant(tenant)
	if !force && t.jobs >= t.quota.MaxQueuedJobs {
		return &QuotaError{Tenant: tenant, What: "queued jobs", Limit: t.quota.MaxQueuedJobs}
	}
	// A tenant re-entering after idling must not cash in virtual time
	// it "saved" while absent: catch it up to the active minimum so
	// fairness is measured over busy periods, not wall-clock history.
	if t.inflight == 0 && !t.hasPending() {
		if min, ok := s.minActiveVtime(); ok && min > t.vtime {
			t.vtime = min
		}
	}
	t.jobs++
	q := t.laneQueue(lane)
	*q = append(*q, job)
	s.cond.Broadcast()
	return nil
}

// Next blocks until a cell is dispatchable (or the scheduler closes)
// and returns it. Returns ok=false exactly once per waiter after
// Close.
func (s *Scheduler) Next() (Dispatched, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return Dispatched{}, false
		}
		if d, ok := s.pickLocked(); ok {
			return d, true
		}
		s.cond.Wait()
	}
}

// pickLocked implements the dispatch policy described on Scheduler.
func (s *Scheduler) pickLocked() (Dispatched, bool) {
	if s.global >= s.maxGlobal {
		return Dispatched{}, false
	}
	for _, lane := range []Lane{LaneInteractive, LaneBatch} {
		var best *tenantState
		for _, t := range s.tenants {
			if len(*t.laneQueue(lane)) == 0 || t.inflight >= t.quota.MaxInflight {
				continue
			}
			if best == nil || t.vtime < best.vtime ||
				(t.vtime == best.vtime && t.name < best.name) {
				best = t
			}
		}
		if best == nil {
			continue
		}
		q := best.laneQueue(lane)
		j := (*q)[0]
		c := j.cells[0]
		j.cells = j.cells[1:]
		if len(j.cells) == 0 {
			*q = (*q)[1:]
		}
		best.inflight++
		best.dispatched++
		s.global++
		best.vtime += 1 / best.quota.Weight
		return Dispatched{
			JobID: c.jobID, Tenant: best.name, Lane: lane, Index: c.index,
			Cell: c.cell, Deadline: c.deadline, Queued: c.queued,
		}, true
	}
	return Dispatched{}, false
}

// Release returns one of a tenant's in-flight slots (scheduler
// dispatch or TryAcquire) and wakes waiting dispatchers.
func (s *Scheduler) Release(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[tenant]; ok && t.inflight > 0 {
		t.inflight--
	}
	if s.global > 0 {
		s.global--
	}
	s.cond.Broadcast()
}

// TryAcquire charges a quota-gated single-cell request (the /v1/cells
// path with a tenant header) against the tenant's in-flight quota and
// virtual time, without queueing. It never blocks: over-quota requests
// are shed with a QuotaError so the HTTP layer can 429 them.
func (s *Scheduler) TryAcquire(tenant string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	t := s.tenant(tenant)
	if t.inflight >= t.quota.MaxInflight {
		return &QuotaError{Tenant: tenant, What: "in-flight cells", Limit: t.quota.MaxInflight}
	}
	if t.inflight == 0 && !t.hasPending() {
		if min, ok := s.minActiveVtime(); ok && min > t.vtime {
			t.vtime = min
		}
	}
	t.inflight++
	s.global++
	t.dispatched++
	t.vtime += 1 / t.quota.Weight
	return nil
}

// JobDone releases a tenant's queued-job slot once a job reaches a
// terminal state (done, failed, or expired).
func (s *Scheduler) JobDone(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[tenant]; ok && t.jobs > 0 {
		t.jobs--
	}
	s.cond.Broadcast()
}

// CancelJob removes a job's still-pending cells from its tenant's lane
// queues, returning how many were dropped (for expiry accounting).
func (s *Scheduler) CancelJob(tenant, jobID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[tenant]
	if !ok {
		return 0
	}
	dropped := 0
	for _, q := range []*[]*schedJob{&t.interactive, &t.batch} {
		kept := (*q)[:0]
		for _, j := range *q {
			if j.id == jobID {
				dropped += len(j.cells)
				continue
			}
			kept = append(kept, j)
		}
		*q = kept
	}
	if dropped > 0 {
		s.cond.Broadcast()
	}
	return dropped
}

// Close stops dispatching and returns every still-pending cell so the
// manager can decide their fate (cancelled without a store, left for
// the next boot's resume with one).
func (s *Scheduler) Close() []Dispatched {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var rest []Dispatched
	for _, t := range s.tenants {
		for _, lane := range []Lane{LaneInteractive, LaneBatch} {
			for _, j := range *t.laneQueue(lane) {
				for _, c := range j.cells {
					rest = append(rest, Dispatched{
						JobID: c.jobID, Tenant: t.name, Lane: lane, Index: c.index,
						Cell: c.cell, Deadline: c.deadline, Queued: c.queued,
					})
				}
			}
			*t.laneQueue(lane) = nil
		}
	}
	s.cond.Broadcast()
	return rest
}

// TenantStats is one tenant's scheduler snapshot.
type TenantStats struct {
	Weight          float64 `json:"weight"`
	VTime           float64 `json:"vtime"`
	Inflight        int     `json:"inflight"`
	QueuedJobs      int     `json:"queued_jobs"`
	CellsDispatched int64   `json:"cells_dispatched"`
}

// Snapshot returns per-tenant scheduler state.
func (s *Scheduler) Snapshot() map[string]TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]TenantStats, len(s.tenants))
	for name, t := range s.tenants {
		out[name] = TenantStats{
			Weight: t.quota.Weight, VTime: t.vtime, Inflight: t.inflight,
			QueuedJobs: t.jobs, CellsDispatched: t.dispatched,
		}
	}
	return out
}
