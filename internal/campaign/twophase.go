package campaign

import (
	"encoding/json"
	"fmt"
	"time"

	"duplexity/internal/telemetry"
)

// Two-phase cells split the paper's pipeline where the paper itself
// splits: an expensive cycle-level micro-simulation that measures a
// design×workload's service characteristics (phase 1), and a cheap
// request-granularity queueing simulation that sweeps offered load over
// those measurements (phase 2). Caching the phases separately means a
// campaign that fans one micro-sim out over many loads simulates it
// once, and a re-run that changes only the load grid re-simulates no
// micro-sims at all.
//
// The two cache layers share one content-addressed store:
//
//   - Phase 1 entries are ordinary cells of the micro-sim's own kind
//     (e.g. "slowdown"), keyed on (kind, model, design, workload, spec,
//     scale, seed) — no load, no governor. Warm caches written before
//     the split already hold them under the same digests.
//   - Phase 2 entries are stored under the cell's full legacy digest
//     (kind + load + governor + lambda ...). Because the phase-1 inputs
//     (design, workload, spec, scale, seed) are all part of that key,
//     the cell digest is equivalent to hashing the phase-1 digest plus
//     the (load, governor, lambda) coordinates — and keeping the legacy
//     encoding means every cache written before the split keeps
//     hitting, byte for byte.
//
// The phase-2 entry's bytes must decode to exactly what the cell's whole
// pipeline, computed in one piece, produced; TestTwoPhaseByteIdentity in
// internal/expt pins recorded bytes for every decomposed cell kind.

// MicroTask is one phase-1 dependency of a two-phase cell: the
// micro-sim's own cache key and the function that measures it. Run must
// be deterministic from the key alone (the standard cell contract).
type MicroTask struct {
	Key Key
	Run func() (json.RawMessage, error)
}

// TwoPhase describes a cell computed in two cached stages. Micro lists
// the phase-1 dependencies in a fixed order; Queue receives their raw
// results in that order and computes the cell's final result. Queue
// must produce bytes identical to the monolithic computation of the
// same cell.
type TwoPhase struct {
	Micro []MicroTask
	Queue func(micro []json.RawMessage) (json.RawMessage, error)
}

// ShardedRemote is an optional Remote refinement for two-phase cells:
// ExecSharded behaves like Exec/ExecDeadline but ranks workers by
// shardDigest — the cell's first phase-1 digest — instead of the cell's
// own digest, so every load fanned out from one micro-sim lands on the
// worker whose disk cache already holds (or is computing) that
// micro-sim. Identity, verification, and L1 coalescing still use the
// cell's own digest.
type ShardedRemote interface {
	Remote
	ExecSharded(k Key, shardDigest string, tr *telemetry.CellTrace, deadline time.Time) (Entry, bool, error)
}

// microFlight coalesces concurrent resolutions of one phase-1 digest:
// N cells fanning loads out from the same micro-sim wait on one
// measurement instead of racing N identical simulations.
type microFlight struct {
	done chan struct{}
	raw  json.RawMessage
	err  error
}

// DoRawTwoPhase resolves a two-phase cell: phase-2 (whole-cell) cache
// probe, then remote dispatch (sharded on the first phase-1 digest when
// the remote supports it), then local computation — each phase-1
// dependency resolved through its own cache layer (in-memory memo, disk
// cache, singleflight, then simulation) before Queue combines them. The
// returned Entry is byte-identical to what DoRaw would have produced
// for the same cell computed monolithically. A nil tp (or nil tp.Queue)
// is rejected; callers with no decomposition use DoRaw.
func (e *Engine) DoRawTwoPhase(k Key, tp *TwoPhase, tr *telemetry.CellTrace, deadline time.Time) (Entry, bool, error) {
	if tp == nil || tp.Queue == nil {
		return Entry{}, false, fmt.Errorf("campaign: two-phase cell without a queue stage")
	}
	digest := k.Digest()
	if ent, ok := e.hitEntry(digest, true, tr); ok {
		return ent, true, nil
	}

	if e.remote != nil {
		exec := e.remote.Exec
		if sr, ok := e.remote.(ShardedRemote); ok && len(tp.Micro) > 0 {
			shard := tp.Micro[0].Key.Digest()
			exec = func(k Key, tr *telemetry.CellTrace) (Entry, bool, error) {
				return sr.ExecSharded(k, shard, tr, deadline)
			}
		} else if dr, ok := e.remote.(DeadlineRemote); ok && !deadline.IsZero() {
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
			e.stats.recordQueueing(remoteCached)
			e.finishLayer(k, digest, remoteCached, true, ent.WallSeconds, tr, tp)
			return ent, remoteCached, nil
		}
		// Remote exhausted its retries; fall through to local two-phase
		// computation, as DoRaw falls back to its local run.
	}

	micro := make([]json.RawMessage, len(tp.Micro))
	for i, mt := range tp.Micro {
		raw, err := e.resolveMicro(mt, tr)
		if err != nil {
			e.stats.recordError()
			return Entry{}, false, err
		}
		micro[i] = raw
	}

	start := time.Now()
	raw, err := tp.Queue(micro)
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
	e.stats.recordQueueing(false)
	e.finishLayer(k, digest, false, false, wall, tr, tp)
	return ent, false, nil
}

// resolveMicro resolves one phase-1 dependency: in-memory memo, disk
// cache, singleflight join, then simulation (stored and journaled like
// any other computed cell). Micro-sim wall time counts toward the
// engine's SimWallSeconds — it is real compute — but micro resolutions
// are accounted in their own per-layer counters, never in the legacy
// Cells/Hits/Misses totals (those still count whole cells).
func (e *Engine) resolveMicro(mt MicroTask, tr *telemetry.CellTrace) (json.RawMessage, error) {
	digest := mt.Key.Digest()

	e.microMu.Lock()
	if raw, ok := e.microMem[digest]; ok {
		e.microMu.Unlock()
		e.finishMicro(mt.Key, digest, true, 0)
		return raw, nil
	}
	if f, ok := e.microFlights[digest]; ok {
		e.microMu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		// A coalesced follower's micro-sim cost it nothing: a hit.
		e.finishMicro(mt.Key, digest, true, 0)
		return f.raw, nil
	}
	f := &microFlight{done: make(chan struct{})}
	e.microFlights[digest] = f
	e.microMu.Unlock()

	raw, hit, wall, err := e.computeMicro(mt, digest, tr)

	e.microMu.Lock()
	delete(e.microFlights, digest)
	if err == nil {
		e.microMem[digest] = raw
	}
	e.microMu.Unlock()
	f.raw, f.err = raw, err
	close(f.done)
	if err != nil {
		return nil, err
	}
	e.finishMicro(mt.Key, digest, hit, wall)
	return raw, nil
}

// computeMicro is the flight leader's path: disk probe, then
// simulation plus a cache write.
func (e *Engine) computeMicro(mt MicroTask, digest string, tr *telemetry.CellTrace) (json.RawMessage, bool, float64, error) {
	if e.cache != nil {
		if ent, ok := e.cache.GetEntry(digest); ok {
			return ent.Result, true, 0, nil
		}
	}
	if mt.Run == nil {
		return nil, false, 0, fmt.Errorf("micro-sim %s not cached and not computable", digest[:12])
	}
	start := time.Now()
	raw, err := mt.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, false, 0, err
	}
	if e.cache != nil {
		ent := Entry{Key: mt.Key, WallSeconds: wall, Result: raw}
		if err := e.cache.Put(digest, ent); err != nil {
			return nil, false, 0, err
		}
	}
	return raw, false, wall, nil
}

// finishMicro records one phase-1 resolution in the per-layer counters
// and journals it when it was computed.
func (e *Engine) finishMicro(k Key, digest string, cached bool, wall float64) {
	seq := e.stats.recordMicro(cached, wall)
	if e.journal != nil && !cached {
		_ = e.journal.Append(JournalEntry{
			Seq: seq, Digest: digest, Kind: k.Kind,
			Design: k.Design, Workload: k.Workload, Load: k.Load,
			Cached: cached, WallSeconds: wall,
			Layer: LayerMicrosim,
		})
	}
}

// finishLayer is finish for a computed or remote two-phase cell: the
// legacy accounting (the cell still counts once in Cells/Hits/Misses,
// so dashboards and manifests that predate the split keep reading
// correctly) plus the queueing-layer journal annotation and the phase-1
// digests the cell was derived from.
func (e *Engine) finishLayer(k Key, digest string, cached, remote bool, wall float64, tr *telemetry.CellTrace, tp *TwoPhase) {
	seq := e.stats.record(CellTiming{
		Kind: k.Kind, Design: k.Design, Workload: k.Workload, Load: k.Load,
		Cached: cached, Remote: remote, WallSeconds: wall,
	})
	if e.journal != nil {
		var deps []string
		for _, mt := range tp.Micro {
			deps = append(deps, mt.Key.Digest())
		}
		_ = e.journal.Append(JournalEntry{
			Seq: seq, Digest: digest, Kind: k.Kind,
			Design: k.Design, Workload: k.Workload, Load: k.Load,
			Cached: cached, Remote: remote, WallSeconds: wall,
			StagesUs: tr.StageTotalsUs(),
			Layer:    LayerQueueing, MicroDigests: deps,
		})
	}
}
