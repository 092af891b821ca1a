package core

import (
	"duplexity/internal/cpu"
	"duplexity/internal/hsmt"
)

// ExecMode selects how Run and RunUntilRequests advance simulated time.
// Both modes are behavior-preserving by construction: stats, telemetry
// event streams (kinds, cycle stamps, emission order), latency samples,
// and campaign cache keys are bit-identical across modes (the
// equivalence suite in engine_test.go holds them to byte equality).
// ModelVersion is deliberately untouched by the mode: how time advances
// is not part of the model.
type ExecMode uint8

const (
	// ExecEvent (the default) drives the dyad as a discrete-event
	// simulation: each component registers its next wake cycle in a
	// priority queue and the clock jumps straight from one scheduled
	// event to the next, never iterating intermediate cycles. One
	// component can sleep through another's busy span, so stall-heavy
	// configurations (the paper's killer microseconds) no longer pay a
	// host cycle per simulated cycle.
	ExecEvent ExecMode = iota
	// ExecStepped steps every component every cycle with no skipping at
	// all — the reference semantics the event engine is held to.
	ExecStepped
)

// String implements fmt.Stringer.
func (m ExecMode) String() string {
	switch m {
	case ExecEvent:
		return "event"
	default:
		return "stepped"
	}
}

// The event engine's profitability backoff: an exact wakeAt scan costs
// roughly as much as a handful of plain steps, so a scan that yields a
// jump shorter than scanMinGain cycles did not pay for itself. After
// such a scan the component holds off for exponentially more quiet
// cycles (capped at scanHoldoffCap) before paying for another one. Pure
// throttling: a held-off cycle is simply stepped, which is always legal.
const (
	scanMinGain    = 8
	scanHoldoffCap = 64
)

// component is one independently clocked unit of the event engine: the
// master side of a dyad (OoO engine plus morph controller and filler
// engine) or its lender side (HSMT scheduler plus in-order datapath).
// Components of a dyad interact only through the shared virtual-context
// run queue (hsmt.Pool) and through passive memory-system state; caches
// and memory ports mutate only inside Access calls from a stepping
// component, so a component that does not step cannot be observed to
// change by anyone else. That is what makes per-component clocks sound.
type component interface {
	// stepAt advances the component through cycle now.
	stepAt(now uint64)
	// skipSpan bulk-charges the quiescent span [now, now+n) exactly as
	// n per-cycle steps would have (cycle counters, stall/idle charges,
	// round-robin phase). The engine only calls it for spans it has
	// proven quiescent.
	skipSpan(now, n uint64)
	// wakeAt returns a conservative lower bound on the next cycle >= now
	// at which stepping the component could change observable state
	// (cpu.NoEvent when nothing is scheduled). Called only immediately
	// after stepAt(now), at which point it must be emission-free: every
	// workload admission at or before now already happened inside the
	// step, so the query mutates nothing and emits no telemetry.
	wakeAt(now uint64) uint64
	// snapProgress marks the component's progress-visible counters;
	// progressed reports whether it made visible progress since the last
	// mark — the cheap gate that decides whether a wakeAt scan could be
	// worthwhile.
	snapProgress()
	progressed() bool
	// runQueue returns the shared hsmt.Pool this component can push to
	// or steal from, nil if it never touches one. Components sharing a
	// pool have their cached wake times invalidated when a sharer's
	// step changes the pool.
	runQueue() *hsmt.Pool
}

// coreMark snapshots a core's progress-visible counters so the event
// engine can detect, in a few comparisons, whether a step did anything.
type coreMark struct{ cycles, work, fstall uint64 }

func markCore(s *cpu.CoreStats) coreMark {
	return coreMark{s.Cycles, s.TotalRetired + s.IssueSlotsUsed, s.FetchStallCycles}
}

// advancedSince reports whether the core made visible forward progress
// after the mark: it was stepped and either retired/issued something or
// fetched (no fetch-stall charge that cycle).
func advancedSince(s *cpu.CoreStats, m coreMark) bool {
	if s.Cycles == m.cycles {
		return false // not stepped at all (e.g. master OoO in filler mode)
	}
	return s.TotalRetired+s.IssueSlotsUsed != m.work || s.FetchStallCycles == m.fstall
}

// masterComp adapts a dyad's master side (morph controller + OoO engine
// + filler engine, or the bare OoO engine for non-morphing designs) to
// the component interface.
type masterComp struct {
	d      *Dyad
	fstats *cpu.CoreStats // filler datapath stats, nil without a MasterCore
	mm, fm coreMark
}

func (c *masterComp) stepAt(now uint64) {
	if c.d.Master != nil {
		c.d.Master.Step(now)
	} else {
		c.d.MasterOoO.Step(now)
	}
}

func (c *masterComp) skipSpan(now, n uint64) {
	if c.d.Master != nil {
		c.d.Master.SkipCycles(now, n)
	} else {
		c.d.MasterOoO.SkipCycles(now, n)
	}
}

func (c *masterComp) wakeAt(now uint64) uint64 {
	if c.d.Master != nil {
		return c.d.Master.NextEvent(now)
	}
	return c.d.MasterOoO.NextEvent(now)
}

func (c *masterComp) snapProgress() {
	c.mm = markCore(&c.d.MasterOoO.Stats)
	if c.fstats != nil {
		c.fm = markCore(c.fstats)
	}
}

func (c *masterComp) progressed() bool {
	return advancedSince(&c.d.MasterOoO.Stats, c.mm) ||
		(c.fstats != nil && advancedSince(c.fstats, c.fm))
}

func (c *masterComp) runQueue() *hsmt.Pool {
	if c.d.Master == nil {
		return nil
	}
	return c.d.Master.runQueue()
}

// lenderComp adapts a dyad's lender side (HSMT scheduler + in-order
// datapath) to the component interface.
type lenderComp struct {
	d  *Dyad
	lm coreMark
}

func (c *lenderComp) stepAt(now uint64) { c.d.Lender.StepCore(now) }

func (c *lenderComp) skipSpan(now, n uint64) {
	c.d.Lender.SkipCycles(now, n)
	c.d.LenderCore.SkipCycles(now, n)
}

func (c *lenderComp) wakeAt(now uint64) uint64 {
	ev := c.d.Lender.NextEvent(now)
	if ce := c.d.LenderCore.NextEvent(now); ce < ev {
		ev = ce
	}
	return ev
}

func (c *lenderComp) snapProgress() { c.lm = markCore(&c.d.LenderCore.Stats) }

func (c *lenderComp) progressed() bool { return advancedSince(&c.d.LenderCore.Stats, c.lm) }

func (c *lenderComp) runQueue() *hsmt.Pool { return c.d.Pool }

// eventEngine is the discrete-event core loop: a binary min-heap of
// per-component wake cycles. The engine pops the earliest wake, advances
// the clock straight to it, and steps exactly the components scheduled
// there — an idle cycle is never ticked, and a sleeping component is
// never polled while another is busy.
//
// Bit-identity with lockstep stepping rests on four invariants,
// documented in DESIGN.md §13:
//
//  1. Canonical slice order. All components due at cycle T step in the
//     fixed order lockstep uses (a dyad's master before its lender;
//     dyads in chip order), so telemetry emission order and shared-cache
//     access order are preserved exactly.
//  2. Conservative wakes. A cached wake time is a lower bound: waking a
//     still-quiescent component early costs a no-op step, never
//     correctness. Wakes are recomputed only right after the component
//     steps (when the query is provably emission-free) and are clamped
//     to at least T+1.
//  3. Lazy exact charging. Stats for a sleeping component are charged
//     just before it next steps (or at run end) via skipSpan over
//     [charged, T): the span is quiescent by invariant 2, so the bulk
//     charge equals what per-cycle stepping would have accumulated.
//  4. Run-queue invalidation. The shared hsmt.Pool is the only active
//     cross-component channel. When a step changes the pool (a steal or
//     a return), every sharer's cached wake is lowered: to T for
//     sharers later in canonical order (lockstep would let them observe
//     the change in the same cycle), to T+1 for earlier ones (they
//     already ran at T before the change, exactly as in lockstep).
type eventEngine struct {
	comps []component
	pools []*hsmt.Pool // comps[i].runQueue(), cached at build time
	wake  []uint64     // cached conservative wake cycle per component
	// charged[i] is the cycle up to which (exclusive) component i's
	// per-cycle stats are charged; [charged[i], now) is an uncharged
	// quiescent span.
	charged []uint64
	penalty []uint32 // profitability backoff state (scanMinGain et al.)
	holdoff []uint32
	heap    []int32 // heap of component indices keyed by (wake, index)
	pos     []int32 // component index -> heap position
	// onSkip is called with the width of every clock jump, crediting
	// SkippedCycles diagnostics on the owning dyads.
	onSkip func(n uint64)
}

// newDyadEngine builds the event engine over the given dyads' components
// in canonical order: for each dyad its master side then its lender
// side, dyads in the order given (chip order).
func newDyadEngine(dyads ...*Dyad) *eventEngine {
	n := 2 * len(dyads)
	e := &eventEngine{
		comps:   make([]component, 0, n),
		pools:   make([]*hsmt.Pool, 0, n),
		wake:    make([]uint64, n),
		charged: make([]uint64, n),
		penalty: make([]uint32, n),
		holdoff: make([]uint32, n),
		heap:    make([]int32, n),
		pos:     make([]int32, n),
	}
	for _, d := range dyads {
		mc := &masterComp{d: d}
		if d.Master != nil {
			mc.fstats = &d.Master.FillerCore().Stats
		}
		e.comps = append(e.comps, mc, &lenderComp{d: d})
		e.pools = append(e.pools, mc.runQueue(), d.Pool)
	}
	ds := dyads
	e.onSkip = func(n uint64) {
		for _, d := range ds {
			d.SkippedCycles += n
		}
	}
	return e
}

// arm resets the engine for a run starting at cycle start: every
// component is scheduled for the first cycle (lockstep steps everyone on
// cycle one too) and is charged through start.
func (e *eventEngine) arm(start uint64) {
	for i := range e.comps {
		e.wake[i] = start
		e.charged[i] = start
		e.penalty[i] = 0
		e.holdoff[i] = 0
		e.heap[i] = int32(i)
		e.pos[i] = int32(i)
	}
}

// run advances the composed components from start until end (exclusive)
// on a shared clock and returns the cycle reached. done, when non-nil,
// is evaluated after every executed cycle and stops the run early — the
// same check frequency as the stepped loop, since the condition can only
// change on an executed cycle. All components are settled (charged
// through the returned cycle) on exit.
func (e *eventEngine) run(start, end uint64, done func() bool) uint64 {
	if start >= end {
		return start
	}
	e.arm(start)
	now := start
	for now < end {
		// Execute the event slice at now: every component scheduled at
		// or before now steps, in canonical order.
		for i := range e.comps {
			if e.wake[i] <= now {
				e.stepComp(int32(i), now)
			}
		}
		now++
		if done != nil && done() {
			break
		}
		if now >= end {
			break
		}
		// Jump the clock to the next scheduled wake; cycles in between
		// are provably idle and are never ticked.
		if t := e.wake[e.heap[0]]; t > now {
			target := t
			if target > end {
				target = end
			}
			e.onSkip(target - now)
			now = target
		}
	}
	e.settle(now)
	return now
}

// stepComp charges component i's outstanding quiescent span, steps it
// through cycle now, and reschedules it.
func (e *eventEngine) stepComp(i int32, now uint64) {
	c := e.comps[i]
	if gap := now - e.charged[i]; gap > 0 {
		c.skipSpan(e.charged[i], gap)
	}
	var steals, returns uint64
	p := e.pools[i]
	if p != nil {
		steals, returns = p.Steals, p.Returns
	}
	c.snapProgress()
	c.stepAt(now)
	e.charged[i] = now + 1

	var w uint64
	switch {
	case c.progressed():
		// A productive cycle: more work is overwhelmingly likely next
		// cycle, and the exact scan would be pure overhead.
		w = now + 1
	case e.holdoff[i] > 0:
		// Recent scans did not pay for themselves; step blindly.
		e.holdoff[i]--
		w = now + 1
	default:
		w = c.wakeAt(now)
		if w <= now {
			w = now + 1
		}
		if w >= now+scanMinGain {
			e.penalty[i] = 0
		} else {
			pen := e.penalty[i]*2 + 1
			if pen > scanHoldoffCap {
				pen = scanHoldoffCap
			}
			e.penalty[i] = pen
			e.holdoff[i] = pen
		}
	}
	e.wake[i] = w
	e.fix(i)

	if p != nil && (p.Steals != steals || p.Returns != returns) {
		e.invalidatePool(p, i, now)
	}
}

// invalidatePool lowers the cached wake of every other sharer of pool p
// after component i's step at cycle now changed the pool. Sharers later
// in canonical order may react within the same cycle (they have not
// stepped yet this slice, matching lockstep, where they run after i);
// earlier sharers already ran at now and can react at now+1.
func (e *eventEngine) invalidatePool(p *hsmt.Pool, i int32, now uint64) {
	for j := range e.comps {
		j := int32(j)
		if j == i || e.pools[j] != p {
			continue
		}
		w := now
		if j < i {
			w = now + 1
		}
		if w < e.wake[j] {
			e.wake[j] = w
			e.fix(j)
		}
	}
}

// settle charges every component's outstanding quiescent span through
// cycle now (exclusive), leaving all stats exactly as a lockstep run to
// now would have.
func (e *eventEngine) settle(now uint64) {
	for i, c := range e.comps {
		if gap := now - e.charged[i]; gap > 0 {
			c.skipSpan(e.charged[i], gap)
			e.charged[i] = now
		}
	}
}

// Binary min-heap over component indices keyed by (wake, index). The
// index tie-break keeps the heap deterministic; slice execution order is
// fixed by the canonical component scan regardless.

func (e *eventEngine) less(a, b int32) bool {
	if e.wake[a] != e.wake[b] {
		return e.wake[a] < e.wake[b]
	}
	return a < b
}

func (e *eventEngine) hswap(x, y int) {
	h := e.heap
	h[x], h[y] = h[y], h[x]
	e.pos[h[x]] = int32(x)
	e.pos[h[y]] = int32(y)
}

// fix restores the heap invariant after component i's wake changed.
func (e *eventEngine) fix(i int32) {
	if !e.up(int(e.pos[i])) {
		e.down(int(e.pos[i]))
	}
}

func (e *eventEngine) up(j int) bool {
	moved := false
	for j > 0 {
		parent := (j - 1) / 2
		if !e.less(e.heap[j], e.heap[parent]) {
			break
		}
		e.hswap(j, parent)
		j = parent
		moved = true
	}
	return moved
}

func (e *eventEngine) down(j int) {
	n := len(e.heap)
	for {
		l := 2*j + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && e.less(e.heap[r], e.heap[l]) {
			least = r
		}
		if !e.less(e.heap[least], e.heap[j]) {
			return
		}
		e.hswap(j, least)
		j = least
	}
}
