package serve

import (
	"sync"
	"sync/atomic"

	"duplexity/internal/telemetry"
)

// metrics is the serving layer's own accounting. The telemetry
// registry's counters are deliberately unsynchronized (single-goroutine
// simulators), so the multi-goroutine serve path keeps atomics and a
// mutex-guarded histogram here and mirrors them into a registry
// snapshot on demand — the same keep-your-own-stats-and-collect pattern
// the pipelines use.
type metrics struct {
	admitted        atomic.Int64
	shedQueueFull   atomic.Int64
	shedRateLimited atomic.Int64
	shedDraining    atomic.Int64
	coalesceLeaders atomic.Int64
	coalesceHits    atomic.Int64
	completed       atomic.Int64
	failed          atomic.Int64
	cacheHits       atomic.Int64
	cancelled       atomic.Int64
	// followerCancelled counts coalesced followers that abandoned a
	// flight other waiters kept (hedge losers, expired deadlines).
	followerCancelled atomic.Int64
	panics            atomic.Int64

	histMu    sync.Mutex
	latencyUs telemetry.Histogram
}

func (m *metrics) observeLatency(us uint64) {
	m.histMu.Lock()
	m.latencyUs.Observe(us)
	m.histMu.Unlock()
}

// snapshot mirrors the counters into a fresh telemetry registry and
// returns its snapshot: hierarchical names, log2 latency histogram with
// p50/p95/p99, deterministic JSON.
func (s *Server) metricsSnapshot() telemetry.Snapshot {
	reg := telemetry.NewRegistry()
	sc := reg.Scope("serve")
	set := func(name string, v int64) { sc.Counter(name).Set(uint64(v)) }
	set("admitted", s.m.admitted.Load())
	set("shed.queue_full", s.m.shedQueueFull.Load())
	set("shed.rate_limited", s.m.shedRateLimited.Load())
	set("shed.draining", s.m.shedDraining.Load())
	set("coalesce.leaders", s.m.coalesceLeaders.Load())
	set("coalesce.hits", s.m.coalesceHits.Load())
	set("cells.completed", s.m.completed.Load())
	set("cells.failed", s.m.failed.Load())
	set("cells.cache_hits", s.m.cacheHits.Load())
	set("cells.cancelled", s.m.cancelled.Load())
	set("cells.follower_cancelled", s.m.followerCancelled.Load())
	set("panics", s.m.panics.Load())
	sc.Gauge("queue.depth").Set(float64(len(s.runq)))
	sc.Gauge("queue.capacity").Set(float64(cap(s.runq)))
	s.m.histMu.Lock()
	sc.Histogram("latency_us").Merge(&s.m.latencyUs)
	s.m.histMu.Unlock()
	if s.traces != nil {
		sc.Counter("traces.recorded").Set(s.traces.Total())
	}
	if s.mgr != nil {
		jst := s.mgr.Stats()
		js := reg.Scope("jobs")
		jset := func(name string, v int64) { js.Counter(name).Set(uint64(v)) }
		jset("submitted", jst.Submitted)
		jset("resumed", jst.Resumed)
		jset("completed", jst.Completed)
		jset("failed", jst.Failed)
		jset("expired", jst.Expired)
		jset("reaped", jst.Reaped)
		jset("cells.dispatched", jst.CellsDispatched)
		jset("deadline.met", jst.DeadlineMet)
		jset("deadline.missed", jst.DeadlineMissed)
		js.Gauge("live").Set(float64(jst.Jobs))
		s.mgr.WaitHistograms(js.Histogram("wait_interactive_us"), js.Histogram("wait_batch_us"))
	}
	if eng := s.suite.Engine(); eng != nil {
		st := eng.Counters()
		cs := reg.Scope("campaign")
		cs.Counter("cells").Set(uint64(st.Cells))
		cs.Counter("cache.hits").Set(uint64(st.Hits))
		cs.Counter("cache.misses").Set(uint64(st.Misses))
		cs.Counter("remote").Set(uint64(st.Remote))
		cs.Counter("errors").Set(uint64(st.Errors))
		// Per-layer counters of the two-phase cache split: micro-sim
		// (phase-1) resolutions and queueing (phase-2) cells. Zero on a
		// daemon that has served only monolithic cells.
		cs.Counter("cells.microsim_hits").Set(uint64(st.MicrosimHits))
		cs.Counter("cells.microsim_misses").Set(uint64(st.MicrosimMisses))
		cs.Counter("cells.queueing_hits").Set(uint64(st.QueueingHits))
		cs.Counter("cells.queueing_misses").Set(uint64(st.QueueingMisses))
	}
	return reg.Snapshot(0)
}
