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
	// computation when the task has a Run body.
	Remote Remote
}

// Remote executes a cell somewhere else and returns the same Entry a
// local computation would have cached: the full key, the producing
// worker's simulation wall time, and the raw result JSON. The bool
// reports whether the remote answered from its own cache. Implementations
// must be safe for concurrent use; internal/fleet provides the
// rendezvous-sharded, hedged implementation. tr, which may be nil
// (untraced), receives the dispatch's remote spans so the caller's
// end-to-end timeline covers the network hop (DESIGN.md §11).
type Remote interface {
	Exec(k Key, tr *telemetry.CellTrace) (Entry, bool, error)
}

// DeadlineRemote is an optional Remote refinement for deadline-lane
// cells: ExecDeadline behaves like Exec but may place and hedge more
// aggressively as the deadline nears (Hurry-up-style scheduling). A
// Remote that does not implement it is driven through Exec regardless
// of deadline.
type DeadlineRemote interface {
	Remote
	ExecDeadline(k Key, tr *telemetry.CellTrace, deadline time.Time) (Entry, bool, error)
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

// Task is one campaign cell: a content-address for its full input and
// the function that computes it. R must round-trip through
// encoding/json unchanged for cache hits to be exact (exported fields,
// no maps with non-deterministic iteration feeding back into results).
type Task[R any] struct {
	Key Key
	Run func() (R, error)
	// TwoPhase, when non-nil, resolves the cell through the two-layer
	// cache (phase-1 micro-sims shared across cells, phase-2 stored
	// under the cell's own digest) and Run is not called: the tail and
	// energyprop tasks leave it nil. TwoPhase.Queue must produce the
	// bytes the cell's whole pipeline would for the same key.
	TwoPhase *TwoPhase
}

// Run executes tasks on the engine's worker pool and returns their
// results in submission order. Cells whose digest is already in the
// cache are decoded instead of simulated and counted as hits; computed
// cells are stored in the cache as they finish, so an interrupted
// batch resumes from its completed cells. On failure Run returns the
// error of the lowest-index failing task (deterministic at any worker
// count); remaining queued cells are abandoned, but cells already
// finished are still in the cache.
func Run[R any](e *Engine, tasks []Task[R]) ([]R, error) {
	results := make([]R, len(tasks))
	errs := make([]error, len(tasks))
	var failed atomic.Bool

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if failed.Load() {
					continue // drain the queue without starting new cells
				}
				r, _, err := runOne(e, tasks[i])
				results[i], errs[i] = r, err
				if err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			k := tasks[i].Key
			return nil, fmt.Errorf("campaign: cell %s %s/%s@%v: %w",
				k.Kind, k.Design, k.Workload, k.Load, err)
		}
	}
	// Clean batch completion: flush a checkpoint so out-of-band tooling
	// can see how far the campaign has progressed (non-fatal, like the
	// journal itself).
	_ = e.Checkpoint(true)
	return results, nil
}

// Do resolves a single cell outside any batch: the asynchronous
// submission hook used by long-running services (internal/serve) that
// admit cells one at a time instead of in Run batches. It shares the
// cache, journal, and stats accounting with Run and is safe for
// concurrent use. The second return reports whether the cache answered
// the cell.
func Do[R any](e *Engine, t Task[R]) (R, bool, error) {
	return runOne(e, t)
}

// runOne resolves one cell: cache probe, then simulation plus
// storing and journaling on a miss. The bool reports a cache hit.
func runOne[R any](e *Engine, t Task[R]) (R, bool, error) {
	var zero R
	var ent Entry
	var cached bool
	var err error
	if t.TwoPhase != nil {
		ent, cached, err = e.DoRawTwoPhase(t.Key, t.TwoPhase, nil, time.Time{})
	} else {
		var run func() (json.RawMessage, error)
		if t.Run != nil {
			run = func() (json.RawMessage, error) {
				r, rerr := t.Run()
				if rerr != nil {
					return nil, rerr
				}
				raw, merr := json.Marshal(r)
				if merr != nil {
					return nil, fmt.Errorf("encoding result: %w", merr)
				}
				return raw, nil
			}
		}
		ent, cached, err = e.DoRaw(t.Key, run)
	}
	if err != nil {
		return zero, false, err
	}
	var r R
	if err := json.Unmarshal(ent.Result, &r); err != nil {
		return zero, false, fmt.Errorf("decoding result: %w", err)
	}
	return r, cached, nil
}

// DoRaw resolves one cell at the cache-entry level: local cache probe,
// then the remote executor (if configured), then local computation via
// run. The returned Entry is exactly what the cache holds (or would
// hold, sans cache dir), which is what lets a fleet worker ship its
// envelope to a coordinator that then stores byte-identical entries.
// The bool reports whether any cache — local or a remote worker's —
// answered the cell. run may be nil when the caller cannot compute
// locally; such a cell fails if it is neither cached nor remotely
// executable.
func (e *Engine) DoRaw(k Key, run func() (json.RawMessage, error)) (Entry, bool, error) {
	return e.DoRawTraced(k, run, nil)
}

// DoRawTraced is DoRaw with per-stage tracing: the cache probe, remote
// dispatch, local compute, and cache-write serialization each record a
// span on tr (nil tr: untraced, zero extra work). The stage breakdown
// is also journaled with a computed or remote completion. Tracing never
// changes what is computed or cached — entries and results are
// byte-identical with tr nil or not.
func (e *Engine) DoRawTraced(k Key, run func() (json.RawMessage, error), tr *telemetry.CellTrace) (Entry, bool, error) {
	return e.DoRawDeadline(k, run, tr, time.Time{})
}

// DoRawDeadline is DoRawTraced for deadline-lane cells: a non-zero
// deadline is forwarded to the remote when it implements DeadlineRemote,
// so a fleet coordinator can prefer the hot-cache worker and hedge
// earlier as the budget shrinks. The deadline never changes what is
// computed or cached — only where and how eagerly.
func (e *Engine) DoRawDeadline(k Key, run func() (json.RawMessage, error), tr *telemetry.CellTrace, deadline time.Time) (Entry, bool, error) {
	digest := k.Digest()
	if ent, ok := e.hitEntry(digest, false, tr); ok {
		return ent, true, nil
	}

	if e.remote != nil {
		exec := e.remote.Exec
		if dr, ok := e.remote.(DeadlineRemote); ok && !deadline.IsZero() {
			exec = func(k Key, tr *telemetry.CellTrace) (Entry, bool, error) {
				return dr.ExecDeadline(k, tr, deadline)
			}
		}
		ent, remoteCached, err := exec(k, tr)
		if err == nil {
			if e.cache != nil {
				put := time.Now()
				if perr := e.cache.Put(digest, ent); perr != nil {
					e.stats.recordError()
					return Entry{}, false, perr
				}
				tr.Stage(telemetry.StageSerialize, put)
			}
			// Cached reports the worker's cache; WallSeconds is the
			// worker's simulation time, so SimWallSeconds still sums
			// real compute fleet-wide.
			e.finish(k, digest, remoteCached, true, ent.WallSeconds, tr)
			return ent, remoteCached, nil
		}
		if run == nil {
			e.stats.recordError()
			return Entry{}, false, err
		}
		// Remote exhausted its retries; fall back to computing locally so
		// a coordinator outlives its whole fleet.
	}

	if run == nil {
		e.stats.recordError()
		return Entry{}, false, fmt.Errorf("cell %s not cached and not computable", digest[:12])
	}

	start := time.Now()
	raw, err := run()
	wall := time.Since(start).Seconds()
	tr.Stage(telemetry.StageCompute, start)
	if err != nil {
		e.stats.recordError()
		return Entry{}, false, err
	}
	ent := Entry{Key: k, WallSeconds: wall, Result: raw}
	if e.cache != nil {
		put := time.Now()
		if err := e.cache.Put(digest, ent); err != nil {
			e.stats.recordError()
			return Entry{}, false, err
		}
		tr.Stage(telemetry.StageSerialize, put)
	}
	e.finish(k, digest, false, false, wall, tr)
	return ent, false, nil
}

// Hit answers a cell from the local cache on the caller's goroutine: it
// reads the cell's entry file once and hands the bytes to decode. A
// missing file, or bytes decode rejects, is a miss; a miss records
// nothing, since whatever resolves the cell next records it. A hit
// records a cache span with detail "hit" on tr and counts in Hits (and
// in QueueingHits when twoPhase is set). Hits are counted, never
// journaled, and add no Timings row. This is the engine's one cache
// probe: DoRaw and DoRawTwoPhase call it first, and a serving layer
// calls it directly to answer a warm hit without a pool hand-off.
func (e *Engine) Hit(digest string, twoPhase bool, tr *telemetry.CellTrace, decode func(entry []byte) error) bool {
	if e.cache == nil {
		return false
	}
	probe := time.Now()
	data, err := e.cache.read(digest)
	if err != nil || decode(data) != nil {
		return false
	}
	tr.StageDetail(telemetry.StageCache, probe, "hit")
	e.stats.recordHit(twoPhase)
	return true
}

// hitEntry is Hit decoding the whole envelope. On a miss it records
// the cache span with detail "miss" (when there is a cache to probe).
func (e *Engine) hitEntry(digest string, twoPhase bool, tr *telemetry.CellTrace) (Entry, bool) {
	var ent Entry
	probe := time.Now()
	if e.Hit(digest, twoPhase, tr, func(data []byte) error { return DecodeEntry(data, &ent) }) {
		return ent, true
	}
	if e.cache != nil {
		tr.StageDetail(telemetry.StageCache, probe, "miss")
	}
	return Entry{}, false
}

// finish records the accounting of a computed or remote cell and
// journals its completion (with the traced per-stage breakdown, when
// there is one).
func (e *Engine) finish(k Key, digest string, cached, remote bool, wall float64, tr *telemetry.CellTrace) {
	seq := e.stats.record(CellTiming{
		Kind: k.Kind, Design: k.Design, Workload: k.Workload, Load: k.Load,
		Cached: cached, Remote: remote, WallSeconds: wall,
	})
	if e.journal != nil {
		// Journal failures are deliberately non-fatal: the journal is an
		// observability artifact; resume correctness comes from the
		// content-addressed cache entries themselves.
		_ = e.journal.Append(JournalEntry{
			Seq: seq, Digest: digest, Kind: k.Kind,
			Design: k.Design, Workload: k.Workload, Load: k.Load,
			Cached: cached, Remote: remote, WallSeconds: wall,
			StagesUs: tr.StageTotalsUs(),
		})
	}
}
