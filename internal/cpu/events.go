package cpu

import "duplexity/internal/isa"

// This file implements the skip surface of the core models: NextEvent
// (the earliest cycle at which observable state can change) and
// SkipCycles (bulk-charge the per-cycle counters a span of quiescent
// cycles would have accumulated). Their only caller is the dyad-level
// discrete-event engine (internal/core/engine.go); everything else
// advances a core with Step. The contract, documented in DESIGN.md, is
// that for any cycle x in [now, NextEvent(now)) a call to Step(x) would
// change nothing except the deterministic per-cycle counters and
// round-robin pointers that SkipCycles replicates — so skipping is
// invisible to every statistic, latency sample, and telemetry event.

// NoEvent mirrors isa.NoEvent for the core models: "no scheduled future
// event".
const NoEvent = ^uint64(0)

// streamNextWork asks a stream for its next-work cycle if it supports
// the pure Eventer protocol; streams that cannot promise anything are
// assumed to have work every cycle (which simply prevents skipping).
func streamNextWork(s isa.Stream, now uint64) uint64 {
	if ev, ok := s.(isa.Eventer); ok {
		return ev.NextWorkAt(now)
	}
	return now
}

// canDispatch mirrors dispatch()'s structural gates for thread t's
// oldest fetched instruction without mutating anything.
func (c *OoOCore) canDispatch(tid int, t *oooThread) bool {
	in := t.fetchBuf[t.fetchHead]
	if t.size == len(t.rob) {
		return false
	}
	if c.sharedIQ() >= c.cfg.IQEntries || t.iqCount >= c.capFor(tid, c.cfg.IQEntries) {
		return false
	}
	if in.Dst != isa.RegNone && c.sharedPhys() >= c.cfg.PhysRegs {
		return false
	}
	if in.Op == isa.OpLoad || in.Op == isa.OpRemote {
		if c.sharedLQ() >= c.cfg.LQEntries || t.lqCount >= c.capFor(tid, c.cfg.LQEntries) {
			return false
		}
	}
	if in.Op == isa.OpStore {
		if c.sharedSQ() >= c.cfg.SQEntries || t.sqCount >= c.capFor(tid, c.cfg.SQEntries) {
			return false
		}
	}
	return true
}

// NextEvent returns the earliest cycle >= now at which the core's
// observable state can change: now if any pipeline stage would make
// progress this cycle, otherwise the minimum over pending completion
// times, fetch-resume cycles, and stream arrival events (NoEvent if the
// core is fully drained with no future work). The result is
// conservative: returning now is always legal and merely prevents a
// skip.
func (c *OoOCore) NextEvent(now uint64) uint64 {
	ev := uint64(NoEvent)
	for tid, t := range c.threads {
		// Commit: a done head retires immediately.
		if t.size > 0 && t.robAt(0).state == robDone {
			return now
		}
		// Complete: the earliest issued-entry completion.
		if t.minCompleteAt < ev {
			ev = t.minCompleteAt
		}
		// Issue: a ready waiting entry issues immediately (FU budgets
		// reset every cycle, so readiness alone implies progress). The
		// noReady memo proves the scan would find nothing.
		if t.iqCount > 0 && !t.noReady {
			for i := 0; i < t.size; i++ {
				e := t.robAt(i)
				if e.state == robWaiting && c.ready(t, e) {
					return now
				}
			}
		}
		// Dispatch: a fetched instruction with free structural
		// resources dispatches immediately. (A blocked one unblocks
		// only via commit/complete, already covered above.)
		if t.fetchLen() > 0 && c.canDispatch(tid, t) {
			return now
		}
		// Fetch: the thread pulls work the first cycle it is eligible
		// and its stream (or replay queue) has something. fetchBlocked
		// clears at a completion event (covered by minCompleteAt);
		// fetchHalted clears only by controller action between steps.
		if t.fetchHalted || t.fetchBlocked {
			continue
		}
		if t.fetchResumeAt > now {
			// Resume is an event boundary even if the stream is idle:
			// idle-cycle attribution starts only once the thread is
			// fetch-eligible, so the skip must not cross it blindly.
			if t.fetchResumeAt < ev {
				ev = t.fetchResumeAt
			}
			continue
		}
		if t.fetchLen() >= c.cfg.FetchBufEntries {
			continue
		}
		if t.replayLen() > 0 {
			return now
		}
		w := streamNextWork(t.stream, now)
		if w <= now {
			return now
		}
		if w < ev {
			ev = w
		}
	}
	return ev
}

// SkipCycles advances the core's deterministic per-cycle state by n
// cycles starting at now, exactly as n quiescent Step calls would. The
// caller must have established now+n <= NextEvent(now). Charged state:
// cycle counters, the fetch-stall counter (nothing fetches during a
// quiescent span by definition), idle cycles for fetch-eligible threads
// whose streams are empty, and the commit/issue round-robin pointer.
func (c *OoOCore) SkipCycles(now, n uint64) {
	c.Stats.Cycles += n
	c.Stats.FetchStallCycles += n
	if !(c.cfg.PriorityThread >= 0 && c.cfg.PriorityThread < len(c.threads)) {
		c.rrPtr = int((uint64(c.rrPtr) + n) % uint64(len(c.threads)))
	}
	for _, t := range c.threads {
		if t.fetchHalted || t.fetchBlocked || t.fetchResumeAt > now {
			continue
		}
		if t.replayLen() > 0 || t.fetchLen() >= c.cfg.FetchBufEntries {
			continue
		}
		if t.inflight() == 0 {
			// The slow path charges one idle cycle per eligible
			// empty-handed probe of the stream.
			t.Stats.IdleCycles += n
		}
	}
}
