// Package campaign is the experiment-campaign engine: a worker pool
// that fans embarrassingly-parallel simulation cells out across
// goroutines, backed by a content-addressed on-disk result cache and an
// append-only completion journal.
//
// The paper's evaluation (Figures 5a–f, Figure 6, the ablations) is a
// campaign of independent (design × workload × load × seed) cells.
// Each cell derives every random seed from its own Key, and each worker
// confines its Dyad (and all other simulator state) to a single
// goroutine, so campaign results are bit-identical to the sequential
// path at any worker count. Results are returned in submission order,
// never in completion order.
//
// Cells are keyed by a SHA-256 digest over the cell's full input
// (design, workload-spec fingerprint, load, scale, seed, and a
// model-version string). With a cache directory configured, each
// computed cell is stored and journaled as it finishes: repeated runs
// and overlapping figures skip simulation entirely, and a killed
// campaign resumes where it left off instead of starting over.
package campaign

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"duplexity/internal/telemetry"
)

// Options configures an Engine.
type Options struct {
	// Workers is the number of concurrent cells; <= 0 means one worker
	// per CPU (runtime.NumCPU()). Workers = 1 is the sequential path.
	Workers int
	// CacheDir enables the persistent content-addressed result cache
	// (and its completion journal) rooted at this directory. Empty means
	// no persistence: every cell simulates.
	CacheDir string
	// Remote, when non-nil, is consulted after the local cache and before
	// local computation: cells are dispatched to it (a fleet of worker
	// daemons, in practice) and its entries are written into the local
	// cache verbatim, so a remote-executed campaign leaves the same cache
	// bytes a local run would. A Remote error falls back to local
	// computation when the cell has a Compute body.
	Remote Remote
}

// Remote executes a cell somewhere else and returns the same Entry a
// local computation would have cached: the full key, the producing
// worker's simulation wall time, and the raw result JSON. The bool
// reports whether the remote answered from its own cache.
// Implementations must be safe for concurrent use; internal/fleet
// provides the rendezvous-sharded, hedged implementation.
//
// shardDigest, when non-empty, is what the remote places the cell by
// instead of the cell's own digest: a two-phase cell passes its first
// phase-1 micro-sim digest, so every load fanned out from one micro-sim
// lands on the worker whose phase-1 memo already holds it. tr, which
// may be nil (untraced), receives the dispatch's remote spans so the
// caller's end-to-end timeline covers the network hop (DESIGN.md §11).
// A non-zero deadline marks a deadline-lane cell, which the remote may
// place and hedge more aggressively as the deadline nears
// (Hurry-up-style scheduling). Neither shardDigest nor deadline changes
// what is computed or cached — only where and how eagerly.
type Remote interface {
	Exec(k Key, shardDigest string, tr *telemetry.CellTrace, deadline time.Time) (Entry, bool, error)
}

// Engine executes campaign cells on a bounded worker pool with optional
// result caching. An Engine is safe for use from multiple goroutines,
// though callers typically submit one batch at a time.
type Engine struct {
	workers int
	cache   *Cache
	journal *Journal
	remote  Remote
	stats   *Stats

	// microMu guards the phase-1 layer of two-phase cells: an in-memory
	// memo of resolved micro-sim results (bounded by the number of
	// unique design×workload points) and the singleflight map that
	// coalesces concurrent cells sharing a micro-sim.
	microMu      sync.Mutex
	microMem     map[string]json.RawMessage
	microFlights map[string]*microFlight
}

// New builds an engine. With a CacheDir, the directory is created if
// needed and pre-existing entries are counted (reported as PriorCells in
// the stats summary, so a resumed run can say how much work it skipped).
func New(o Options) (*Engine, error) {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	e := &Engine{
		workers: w, remote: o.Remote, stats: newStats(),
		microMem:     make(map[string]json.RawMessage),
		microFlights: make(map[string]*microFlight),
	}
	if o.CacheDir != "" {
		c, err := OpenCache(o.CacheDir)
		if err != nil {
			return nil, err
		}
		n, err := c.Len()
		if err != nil {
			return nil, err
		}
		e.cache = c
		e.journal = NewJournal(c.JournalPath())
		e.stats.setPrior(n)
	}
	return e, nil
}

// Workers returns the configured pool width.
func (e *Engine) Workers() int { return e.workers }

// CacheDir returns the cache root, or "" when the engine is ephemeral.
func (e *Engine) CacheDir() string {
	if e.cache == nil {
		return ""
	}
	return e.cache.Dir()
}

// Lookup probes the local cache for a completed cell without touching
// hit/miss accounting or the journal — the read-only probe the durable
// job store uses to rematerialize finished cells after a restart.
func (e *Engine) Lookup(k Key) (Entry, bool) {
	if e.cache == nil {
		return Entry{}, false
	}
	return e.cache.GetEntry(k.Digest())
}

// Stats snapshots the engine's cache and wall-time accounting, with one
// Timings row per cell computed locally or resolved by a remote (a
// local cache hit is counted but adds no row).
func (e *Engine) Stats() Summary {
	s := e.stats.summary(true)
	s.Workers = e.workers
	return s
}

// Counters is Stats without Timings: its cost does not grow with the
// number of cells computed, so a long-lived daemon can take it on every
// request.
func (e *Engine) Counters() Summary {
	s := e.stats.summary(false)
	s.Workers = e.workers
	return s
}

// Cell is one campaign cell: a content-address for its full input,
// the cache layer it belongs to, its phase-1 micro-sim dependencies
// and the function that computes its result from theirs. Compute
// receives the micro-sims' raw results in Micro's order and must be
// deterministic from the key alone; a nil Compute marks a cell that
// can only be answered by a cache or the remote.
//
// Layer is "" for a cell computed in one piece (matrix, slowdown) and
// LayerQueueing for a queueing-stage cell. It is data, not inferred
// from Micro: a Baseline tail or energyprop cell has no micro-sims (its
// slowdown is 1.0 by definition) yet is still a queueing-layer cell.
type Cell struct {
	Key     Key
	Layer   string
	Micro   []MicroTask
	Compute func(micro []json.RawMessage) (json.RawMessage, error)
}

// Run resolves cells on the engine's worker pool and returns their
// cache entries in submission order. Cells whose digest is already in
// the cache are answered from it and counted as hits; computed cells
// are stored as they finish, so an interrupted batch resumes from its
// completed cells. On failure Run returns the error of the
// lowest-index failing cell (deterministic at any worker count): once
// a cell fails, only cells above the lowest index that has failed so
// far are skipped, and cells already finished stay in the cache.
func Run(e *Engine, cells []Cell) ([]Entry, error) {
	entries := make([]Entry, len(cells))
	errs := make([]error, len(cells))
	// firstFailed is the lowest index that has failed so far. Only cells
	// above it are skipped: a lower cell may still fail, and its error
	// is the one Run reports.
	var firstFailed atomic.Int64
	firstFailed.Store(int64(len(cells)))

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if int64(i) > firstFailed.Load() {
					continue // drain the queue without starting new cells
				}
				ent, _, err := e.Resolve(&cells[i], nil, time.Time{})
				entries[i], errs[i] = ent, err
				if err != nil {
					for {
						f := firstFailed.Load()
						if int64(i) >= f || firstFailed.CompareAndSwap(f, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			k := cells[i].Key
			return nil, fmt.Errorf("campaign: cell %s %s/%s@%v: %w",
				k.Kind, k.Design, k.Workload, k.Load, err)
		}
	}
	// Clean batch completion: flush a checkpoint so out-of-band tooling
	// can see how far the campaign has progressed (non-fatal, like the
	// journal itself).
	_ = e.Checkpoint(true)
	return entries, nil
}

// Resolve answers one cell at the cache-entry level: local cache probe
// (the whole-cell layer), then the remote executor (if configured,
// placed by the first micro-sim digest when the cell has micro-sims, so
// every load fanned out from one micro-sim lands on one worker), then
// local computation: each micro-sim through its own layer (in-memory
// memo, disk cache, singleflight, simulation) before Compute combines
// them. The returned Entry is exactly what the cache holds (or would
// hold, sans cache dir), which is what lets a fleet worker ship its
// envelope to a coordinator that then stores byte-identical entries.
// The bool reports whether any cache — local or a remote worker's —
// answered the cell. Batches (Run) and long-running services
// (internal/serve, one cell at a time) share this one path, and it is
// safe for concurrent use.
//
// The cache probe, remote dispatch, local compute, and cache-write
// serialization each record a span on tr (nil tr: untraced, zero extra
// work), and the stage breakdown is journaled with a computed or remote
// completion. A non-zero deadline marks a deadline-lane cell and is
// forwarded to the remote (see Remote). Neither tracing nor the
// deadline changes what is computed or cached.
func (e *Engine) Resolve(c *Cell, tr *telemetry.CellTrace, deadline time.Time) (Entry, bool, error) {
	digest := c.Key.Digest()
	if ent, ok := e.hitEntry(digest, c.Layer, tr); ok {
		return ent, true, nil
	}

	if e.remote != nil {
		shard := ""
		if len(c.Micro) > 0 {
			shard = c.Micro[0].Key.Digest()
		}
		ent, remoteCached, err := e.remote.Exec(c.Key, shard, tr, deadline)
		if err == nil {
			if err := e.store(digest, ent, tr); err != nil {
				return Entry{}, false, err
			}
			// Cached reports the worker's cache; WallSeconds is the
			// worker's simulation time, so SimWallSeconds still sums
			// real compute fleet-wide.
			e.finish(c, digest, remoteCached, true, ent.WallSeconds, tr)
			return ent, remoteCached, nil
		}
		if c.Compute == nil {
			e.stats.recordError()
			return Entry{}, false, err
		}
		// Remote exhausted its retries; fall back to computing locally so
		// a coordinator outlives its whole fleet.
	}

	if c.Compute == nil {
		e.stats.recordError()
		return Entry{}, false, fmt.Errorf("cell %s not cached and not computable", digest[:12])
	}
	micro := make([]json.RawMessage, len(c.Micro))
	for i, mt := range c.Micro {
		raw, err := e.resolveMicro(mt)
		if err != nil {
			e.stats.recordError()
			return Entry{}, false, err
		}
		micro[i] = raw
	}

	start := time.Now()
	raw, err := c.Compute(micro)
	wall := time.Since(start).Seconds()
	tr.Stage(telemetry.StageCompute, start)
	if err != nil {
		e.stats.recordError()
		return Entry{}, false, err
	}
	ent := Entry{Key: c.Key, WallSeconds: wall, Result: raw}
	if err := e.store(digest, ent, tr); err != nil {
		return Entry{}, false, err
	}
	e.finish(c, digest, false, false, wall, tr)
	return ent, false, nil
}

// store writes a resolved cell's entry to the cache, when there is one,
// and records the write as a serialize span on tr.
func (e *Engine) store(digest string, ent Entry, tr *telemetry.CellTrace) error {
	if e.cache == nil {
		return nil
	}
	put := time.Now()
	if err := e.cache.Put(digest, ent); err != nil {
		e.stats.recordError()
		return err
	}
	tr.Stage(telemetry.StageSerialize, put)
	return nil
}

// Hit answers a cell from the local cache on the caller's goroutine: it
// reads the cell's entry file once and hands the bytes to decode. A
// missing file, or bytes decode rejects, is a miss; a miss records
// nothing, since whatever resolves the cell next records it. A hit
// records a cache span with detail "hit" on tr and counts in Hits (and
// in QueueingHits for a LayerQueueing cell). Hits are counted, never
// journaled, and add no Timings row. This is the engine's one cache
// probe: Resolve calls it first, and a serving layer calls it directly
// to answer a warm hit without a pool hand-off.
func (e *Engine) Hit(digest, layer string, tr *telemetry.CellTrace, decode func(entry []byte) error) bool {
	if e.cache == nil {
		return false
	}
	probe := time.Now()
	data, err := e.cache.read(digest)
	if err != nil || decode(data) != nil {
		return false
	}
	tr.StageDetail(telemetry.StageCache, probe, "hit")
	e.stats.recordHit(layer)
	return true
}

// hitEntry is Hit decoding the whole envelope. On a miss it records
// the cache span with detail "miss" (when there is a cache to probe).
func (e *Engine) hitEntry(digest, layer string, tr *telemetry.CellTrace) (Entry, bool) {
	var ent Entry
	probe := time.Now()
	if e.Hit(digest, layer, tr, func(data []byte) error { return DecodeEntry(data, &ent) }) {
		return ent, true
	}
	if e.cache != nil {
		tr.StageDetail(telemetry.StageCache, probe, "miss")
	}
	return Entry{}, false
}

// finish records the accounting of a computed or remote cell and
// journals its completion: the traced per-stage breakdown, when there
// is one, and for a queueing-layer cell its layer and the phase-1
// digests it was derived from.
func (e *Engine) finish(c *Cell, digest string, cached, remote bool, wall float64, tr *telemetry.CellTrace) {
	k := c.Key
	seq := e.stats.record(CellTiming{
		Kind: k.Kind, Design: k.Design, Workload: k.Workload, Load: k.Load,
		Cached: cached, Remote: remote, WallSeconds: wall,
	}, c.Layer)
	if e.journal != nil {
		var deps []string
		for _, mt := range c.Micro {
			deps = append(deps, mt.Key.Digest())
		}
		// Journal failures are deliberately non-fatal: the journal is an
		// observability artifact; resume correctness comes from the
		// content-addressed cache entries themselves.
		_ = e.journal.Append(JournalEntry{
			Seq: seq, Digest: digest, Kind: k.Kind,
			Design: k.Design, Workload: k.Workload, Load: k.Load,
			Cached: cached, Remote: remote, WallSeconds: wall,
			StagesUs: tr.StageTotalsUs(),
			Layer:    c.Layer, MicroDigests: deps,
		})
	}
}
