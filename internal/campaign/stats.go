package campaign

import "sync"

// CellTiming is the per-cell accounting row surfaced in run manifests:
// which cell, whether a remote worker's cache answered it, and the
// simulation wall time. Rows exist only for cells computed locally or
// resolved by a remote; a local cache hit adds none.
type CellTiming struct {
	Kind     string  `json:"kind"`
	Design   string  `json:"design"`
	Workload string  `json:"workload"`
	Load     float64 `json:"load"`
	Cached   bool    `json:"cached"`
	// Remote marks a cell resolved by a fleet worker rather than this
	// process (Cached then reports the worker's cache, WallSeconds the
	// worker's simulation time).
	Remote      bool    `json:"remote,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
}

// Summary is a snapshot of an engine's campaign accounting, shaped for
// direct embedding in a telemetry manifest.
type Summary struct {
	// Workers is the configured pool width.
	Workers int `json:"workers"`
	// PriorCells counts cache entries that existed before this engine
	// opened the cache (what a resumed run inherited).
	PriorCells int `json:"prior_cells,omitempty"`
	// Cells = Hits + Misses: completions in this engine's lifetime.
	Cells  int `json:"cells"`
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// Remote counts cells resolved by fleet workers (a subset of Cells).
	Remote int `json:"remote,omitempty"`
	Errors int `json:"errors,omitempty"`
	// Per-layer counters for two-phase cells. Micro-sim resolutions are
	// accounted here only — never in Cells/Hits/Misses, which still
	// count whole cells — so a two-phase campaign's legacy totals stay
	// comparable with runs from before the split. A queueing hit/miss is
	// recorded alongside the legacy hit/miss for every two-phase cell;
	// cells computed in one piece (matrix, slowdown) touch neither layer.
	MicrosimHits   int `json:"microsim_hits,omitempty"`
	MicrosimMisses int `json:"microsim_misses,omitempty"`
	QueueingHits   int `json:"queueing_hits,omitempty"`
	QueueingMisses int `json:"queueing_misses,omitempty"`
	// Incomplete counts admitted cells journaled as cancelled or
	// panicked by a serving layer (never part of Cells).
	Incomplete int `json:"incomplete,omitempty"`
	// HitRate is Hits/Cells (0 when no cells completed).
	HitRate float64 `json:"hit_rate"`
	// SimWallSeconds sums per-cell simulation wall time. With several
	// workers this exceeds elapsed wall time — that surplus is the
	// parallelism win.
	SimWallSeconds float64 `json:"sim_wall_seconds"`
	// Timings lists every cell computed locally or resolved by a
	// remote, in completion order. Local cache hits are counted in Hits
	// and add no row, so a long-lived daemon's rows grow with the work
	// it did, not with the requests it answered.
	Timings []CellTiming `json:"timings,omitempty"`
}

// Stats accumulates campaign accounting under a mutex; cells finish on
// many goroutines.
type Stats struct {
	mu         sync.Mutex
	workers    int
	prior      int
	seq        int
	hits       int
	misses     int
	remote     int
	errors     int
	incomplete int
	microHits  int
	microMiss  int
	queueHits  int
	queueMiss  int
	simWall    float64
	timings    []CellTiming
}

func newStats() *Stats { return &Stats{} }

func (s *Stats) setPrior(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prior = n
}

// record logs one cell computed locally or resolved by a remote and
// returns its journal sequence number.
func (s *Stats) record(t CellTiming) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Cached {
		s.hits++
	} else {
		s.misses++
	}
	if t.Remote {
		s.remote++
	}
	s.simWall += t.WallSeconds
	s.timings = append(s.timings, t)
	s.seq++
	return s.seq
}

// recordHit counts one local cache hit (and its queueing-layer hit for
// a two-phase cell). A hit takes no sequence number: it is not
// journaled.
func (s *Stats) recordHit(twoPhase bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits++
	if twoPhase {
		s.queueHits++
	}
}

// recordIncomplete logs a cancelled or panicked cell and returns its
// journal sequence number.
func (s *Stats) recordIncomplete() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.incomplete++
	s.seq++
	return s.seq
}

// recordMicro logs one phase-1 micro-sim resolution and returns its
// journal sequence number (0 for a hit, which is not journaled).
// Micro-sim wall time is real compute and counts toward SimWallSeconds.
func (s *Stats) recordMicro(hit bool, wall float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hit {
		s.microHits++
		return 0
	}
	s.microMiss++
	s.simWall += wall
	s.seq++
	return s.seq
}

// recordQueueing logs the phase-2 probe outcome of one two-phase cell
// (recorded alongside the legacy hit/miss, which record() handles).
func (s *Stats) recordQueueing(hit bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hit {
		s.queueHits++
	} else {
		s.queueMiss++
	}
}

func (s *Stats) recordError() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.errors++
}

// summary snapshots the counters, and copies the per-cell timings when
// timings is set.
func (s *Stats) summary(timings bool) Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := Summary{
		PriorCells:     s.prior,
		Cells:          s.hits + s.misses,
		Hits:           s.hits,
		Misses:         s.misses,
		Remote:         s.remote,
		Errors:         s.errors,
		Incomplete:     s.incomplete,
		MicrosimHits:   s.microHits,
		MicrosimMisses: s.microMiss,
		QueueingHits:   s.queueHits,
		QueueingMisses: s.queueMiss,
		SimWallSeconds: s.simWall,
	}
	if timings {
		sum.Timings = append([]CellTiming(nil), s.timings...)
	}
	if sum.Cells > 0 {
		sum.HitRate = float64(sum.Hits) / float64(sum.Cells)
	}
	return sum
}
