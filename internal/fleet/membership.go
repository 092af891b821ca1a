package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"duplexity/internal/core"
	"duplexity/internal/expt"
	"duplexity/internal/serve"
)

// This file implements fleet membership. Boot workers (Register) and
// runtime workers (Join) enter through one function, admit, which
// holds the fleet's world rule. Runtime workers announce themselves
// with POST /v1/fleet/join and keep re-posting it as a heartbeat; a
// membership loop evicts joined workers that go quiet.
// Adding or removing a worker rewrites the membership slice under wmu,
// which is all a rendezvous ring needs — rankWorkers is a pure function
// of the current list, so the ring "rebuilds" on the next acquire with
// minimal remapping (HRW's defining property). In-flight cells hold
// their *worker directly and finish regardless; cells that fail on a
// departed worker reshard through the existing retry loop.

// JoinRequest is the POST /v1/fleet/join body: a worker announcing
// itself (and, on repeat, heartbeating). PoolWidth sizes the dispatch
// window like a boot worker's /v1/queuez answer does; World lets the
// coordinator reject a worker simulating a different universe before
// it can serve a single divergent cell.
type JoinRequest struct {
	// Worker is the daemon's advertised base URL, e.g. "http://host:9400".
	Worker string `json:"worker"`
	// PoolWidth is the worker's simulation pool width (serve -workers).
	PoolWidth int `json:"pool_width,omitempty"`
	// World is the worker's (model, scale, seed) identity.
	World expt.World `json:"world"`
}

// JoinResponse acknowledges a join/heartbeat.
type JoinResponse struct {
	// Created is true when this join added the worker (false: heartbeat).
	Created bool `json:"created"`
	// Workers is the fleet size after the join.
	Workers int `json:"workers"`
	// HeartbeatSec tells the worker how often to re-join.
	HeartbeatSec int `json:"heartbeat_sec"`
}

// LeaveRequest is the POST /v1/fleet/leave body.
type LeaveRequest struct {
	Worker string `json:"worker"`
}

// Join adds a worker to the ring (or refreshes its heartbeat if it is
// already a member) under its normalized URL.
func (c *Coordinator) Join(name string, poolWidth int, world expt.World) (created bool, err error) {
	name, err = NormalizeURL(name)
	if err != nil {
		return false, err
	}
	return c.admit(name, true, &serve.Queuez{Workers: poolWidth, World: world})
}

// admit is the one way into the fleet: Register admits each boot worker
// with its /v1/queuez answer, Join each runtime worker with its join
// body. The answer's world is adopted or verified (agree) and its pool
// width, when set, sizes the worker's window; an existing member is
// refreshed, not duplicated. A boot worker that did not answer (qz nil)
// joins the ring down-marked, and only the digest check on its results
// vouches for its world.
func (c *Coordinator) admit(name string, joined bool, qz *serve.Queuez) (created bool, err error) {
	now := time.Now()
	c.wmu.Lock()
	if qz != nil {
		if err := c.agree(qz.World); err != nil {
			c.wmu.Unlock()
			return false, fmt.Errorf("fleet: worker %s %w", name, err)
		}
	}
	var w *worker
	for _, m := range c.workers {
		if m.name == name {
			w = m
			break
		}
	}
	if w == nil {
		created = true
		w = newWorker(name)
		w.joined = joined
		w.lastBeat = now
		c.workers = append(c.workers, w)
	}
	c.wmu.Unlock()
	if qz == nil {
		w.connFail(now)
		return created, nil
	}
	if qz.Workers > 0 {
		w.configure(qz.Workers)
	}
	if joined {
		w.beat(now)
		if created {
			c.joins.Add(1)
		}
	}
	return created, nil
}

// agree adopts or verifies a member's world, with wmu held. A fleet
// serves this binary's model only: another model computes different
// results under the same cell keys. Once a world is set, pinned by
// Options.World or adopted from the first admitted worker, every member
// must serve exactly it.
func (c *Coordinator) agree(world expt.World) error {
	if world.Model != core.ModelVersion {
		return fmt.Errorf("serves model %q, this binary is %q", world.Model, core.ModelVersion)
	}
	if c.world == (expt.World{}) {
		c.world = world
		return nil
	}
	if world != c.world {
		return fmt.Errorf("serves world %+v, want %+v", world, c.world)
	}
	return nil
}

// Leave removes a joined worker, named by its normalized URL, from the
// ring immediately (a graceful shutdown beats waiting out the eviction
// window). Static boot workers are not removable — they are the
// operator's configuration — and an unknown name is a no-op; both
// report false.
func (c *Coordinator) Leave(name string) bool {
	c.wmu.Lock()
	for i, w := range c.workers {
		if w.name == name && w.joined {
			c.workers = append(c.workers[:i], c.workers[i+1:]...)
			c.wmu.Unlock()
			c.leaves.Add(1)
			return true
		}
	}
	c.wmu.Unlock()
	return false
}

// EvictStale removes joined workers whose last heartbeat is older than
// EvictAfter and returns their names. Static workers are never evicted,
// only down-marked by the dispatch path.
func (c *Coordinator) EvictStale(now time.Time) []string {
	var evicted []string
	c.wmu.Lock()
	kept := c.workers[:0]
	for _, w := range c.workers {
		if w.stale(now, c.opts.EvictAfter) {
			evicted = append(evicted, w.name)
			continue
		}
		kept = append(kept, w)
	}
	c.workers = kept
	c.wmu.Unlock()
	c.evictions.Add(int64(len(evicted)))
	return evicted
}

// RunMembership sweeps for stale joined workers every heartbeat
// interval until ctx is cancelled. logf (nil for silent) reports
// evictions.
func (c *Coordinator) RunMembership(ctx context.Context, logf func(format string, args ...any)) {
	t := time.NewTicker(c.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			for _, name := range c.EvictStale(now) {
				if logf != nil {
					logf("fleet: evicted %s (no heartbeat in %v)", name, c.opts.EvictAfter)
				}
			}
		}
	}
}

// handleJoin answers 400 for a bad body or worker URL and 409 for a
// joiner the world rule keeps out.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
		return
	}
	name, err := NormalizeURL(req.Worker)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
		return
	}
	created, err := c.Join(name, req.PoolWidth, req.World)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(JoinResponse{
		Created:      created,
		Workers:      len(c.snapshot()),
		HeartbeatSec: int(c.opts.HeartbeatInterval / time.Second),
	})
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
		return
	}
	name, err := NormalizeURL(req.Worker)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
		return
	}
	removed := c.Leave(name)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"removed": removed, "workers": len(c.snapshot()),
	})
}
