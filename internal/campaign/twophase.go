package campaign

import (
	"encoding/json"
	"fmt"
	"time"
)

// Queueing-layer cells split the paper's pipeline where the paper
// itself splits: an expensive cycle-level micro-simulation that
// measures a design×workload's service characteristics (phase 1), and
// a cheap request-granularity queueing simulation that sweeps offered
// load over those measurements (phase 2). Caching the phases separately
// means a campaign that fans one micro-sim out over many loads
// simulates it once, and a re-run that changes only the load grid
// re-simulates no micro-sims at all.
//
// The two cache layers share one content-addressed store:
//
//   - Phase 1 entries are ordinary cells of the micro-sim's own kind
//     (e.g. "slowdown"), keyed on (kind, model, design, workload, spec,
//     scale, seed) — no load, no governor — so a micro-sim and the
//     served or batch cell of that kind share one entry.
//   - Phase 2 entries are stored under the cell's whole-cell digest
//     (kind + load + governor + lambda ...), not a digest derived from
//     the phase-1 digests. Because the phase-1 inputs (design,
//     workload, spec, scale, seed) are all part of that key, it is
//     equivalent to hashing the phase-1 digest plus the (load,
//     governor, lambda) coordinates, and the pinned digests hold.
//
// The phase-2 entry's bytes must decode to exactly what the cell's
// whole pipeline, computed in one piece, produces;
// TestTwoPhaseByteIdentity in internal/expt pins recorded bytes for
// every queueing-layer cell kind.

// MicroTask is one phase-1 dependency of a queueing-layer cell: the
// micro-sim's own cache key and the function that measures it. Run must
// be deterministic from the key alone (the standard cell contract).
type MicroTask struct {
	Key Key
	Run func() (json.RawMessage, error)
}

// microFlight coalesces concurrent resolutions of one phase-1 digest:
// N cells fanning loads out from the same micro-sim wait on one
// measurement instead of racing N identical simulations.
type microFlight struct {
	done chan struct{}
	raw  json.RawMessage
	err  error
}

// resolveMicro resolves one phase-1 dependency: in-memory memo, disk
// cache, singleflight join, then simulation (stored and journaled like
// any other computed cell). Micro-sim wall time counts toward the
// engine's SimWallSeconds — it is real compute — but micro resolutions
// are accounted in their own per-layer counters, never in the
// Cells/Hits/Misses totals (those count whole cells).
func (e *Engine) resolveMicro(mt MicroTask) (json.RawMessage, error) {
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

	raw, hit, wall, err := e.computeMicro(mt, digest)

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
func (e *Engine) computeMicro(mt MicroTask, digest string) (json.RawMessage, bool, float64, error) {
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
