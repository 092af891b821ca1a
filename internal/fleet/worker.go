package fleet

import (
	"sync"
	"sync/atomic"
	"time"
)

// worker is the coordinator's view of one duplexityd worker daemon: a
// bounded in-flight window with AIMD adjustment, a 429-driven holdoff,
// and exponential down-marking on connection failure.
type worker struct {
	name string // base URL, e.g. "http://host:9400"
	// joined marks a worker that entered the fleet through
	// POST /v1/fleet/join rather than the boot-time -fleet list. Joined
	// workers must keep heartbeating or they are evicted; static workers
	// are only ever down-marked, never removed.
	joined bool

	mu sync.Mutex
	// lastBeat is the most recent join/heartbeat for a joined worker.
	lastBeat time.Time
	// window bounds concurrent dispatches; additive increase on success
	// up to windowCap, halved when the worker sheds with 429 — the same
	// loop TCP runs, fed by the serving layer's admission signals.
	window    int
	windowCap int
	inflight  int
	// notBefore holds dispatch off until a 429's Retry-After has passed.
	notBefore time.Time
	// downUntil marks the worker unusable after connection failures,
	// with exponential backoff so a dead host costs progressively less.
	downUntil time.Time
	fails     int

	dispatched atomic.Int64
	completed  atomic.Int64
	rejected   atomic.Int64
	failed     atomic.Int64
}

func newWorker(name string) *worker {
	return &worker{name: name, window: 1, windowCap: 16}
}

// beat records a heartbeat and clears any down-marking: a worker that
// can reach us to heartbeat is dispatchable again.
func (w *worker) beat(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lastBeat = now
	w.fails = 0
	w.downUntil = time.Time{}
}

// stale reports whether a joined worker has missed heartbeats long
// enough to evict. Static workers are never stale.
func (w *worker) stale(now time.Time, evictAfter time.Duration) bool {
	if !w.joined {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return now.Sub(w.lastBeat) > evictAfter
}

// configure sizes the window from the worker's reported simulation pool
// width (>= 1): start at the pool width (one dispatch per simulation
// slot) and allow up to 2× so the worker's queue stays fed between
// round trips.
func (w *worker) configure(poolWidth int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.window = poolWidth
	w.windowCap = 2 * poolWidth
}

// tryAcquire claims an in-flight slot if the worker is usable now.
func (w *worker) tryAcquire(now time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if now.Before(w.downUntil) || now.Before(w.notBefore) {
		return false
	}
	if w.inflight >= w.window {
		return false
	}
	w.inflight++
	w.dispatched.Add(1)
	return true
}

func (w *worker) release() {
	w.mu.Lock()
	w.inflight--
	w.mu.Unlock()
}

// success clears failure state and grows the window additively.
func (w *worker) success() {
	w.completed.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails = 0
	w.downUntil = time.Time{}
	if w.window < w.windowCap {
		w.window++
	}
}

// reject reacts to a 429: halve the window and honor Retry-After
// (clamped — the worker's drain estimate can be pessimistic, and other
// cells may free its queue sooner).
func (w *worker) reject(retryAfter time.Duration, now time.Time) {
	w.rejected.Add(1)
	if retryAfter <= 0 {
		retryAfter = 250 * time.Millisecond
	}
	if retryAfter > 5*time.Second {
		retryAfter = 5 * time.Second
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.window > 1 {
		w.window /= 2
	}
	w.notBefore = now.Add(retryAfter)
}

// connFail marks the worker down with exponential backoff.
func (w *worker) connFail(now time.Time) {
	w.failed.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails++
	d := 5 * time.Second
	if w.fails <= 5 {
		d = 250 * time.Millisecond << uint(w.fails-1)
	}
	w.downUntil = now.Add(d)
}

// status snapshots the worker for /v1/fleetz.
func (w *worker) status(now time.Time) WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerStatus{
		Name:       w.name,
		Window:     w.window,
		InFlight:   w.inflight,
		Down:       now.Before(w.downUntil),
		Joined:     w.joined,
		Dispatched: w.dispatched.Load(),
		Completed:  w.completed.Load(),
		Rejected:   w.rejected.Load(),
		Failed:     w.failed.Load(),
	}
}
