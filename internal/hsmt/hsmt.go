// Package hsmt implements Hierarchical Simultaneous Multithreading
// (Section III-A): a pool of latency-insensitive virtual contexts that
// time-multiplex the physical contexts of an in-order SMT datapath
// through a FIFO run queue held in dedicated memory.
//
// When a bound context issues a µs-scale remote operation, its state is
// dumped to the tail of the run queue and a ready context is swapped in.
// A 100µs round-robin quantum prevents starvation. A dyad's master-core
// borrows filler-threads by attaching a second Scheduler (its filler
// engine) to the same Pool: contexts are stolen from the head of the
// shared run queue, exactly as in Section III-A.
package hsmt

import (
	"fmt"

	"duplexity/internal/cpu"
	"duplexity/internal/isa"
	"duplexity/internal/telemetry"
)

// VirtualContext is one latency-insensitive software thread's schedulable
// state.
type VirtualContext struct {
	// ID identifies the context for statistics.
	ID int
	// Stream supplies the context's instruction stream.
	Stream isa.Stream
	// ReadyAt is the cycle at which the context's pending remote
	// operation completes (0 when ready).
	ReadyAt uint64
	// Pending holds fetched-but-unissued instructions saved at swap-out,
	// replayed at the next bind.
	Pending []isa.Instr

	// Binds counts how many times the context was scheduled.
	Binds uint64
}

// Ready reports whether the context can execute at cycle now.
func (v *VirtualContext) Ready(now uint64) bool { return v.ReadyAt <= now }

// Pool is the dyad-shared run queue of virtual contexts.
type Pool struct {
	queue []*VirtualContext
	// earliest is a lower bound on the next cycle at which any queued
	// context becomes ready; it lets schedulers skip queue scans.
	earliest uint64

	// Steals counts head-of-queue grabs; Returns counts re-enqueues.
	Steals, Returns uint64
}

// NewPool builds an empty pool.
func NewPool() *Pool { return &Pool{} }

// Add enqueues a new context at the tail.
func (p *Pool) Add(vc *VirtualContext) {
	if vc.ReadyAt < p.earliest {
		p.earliest = vc.ReadyAt
	}
	p.queue = append(p.queue, vc)
}

// EarliestReady returns a lower bound on the cycle at which the pool next
// has a ready context (0 when a context may already be ready).
func (p *Pool) EarliestReady() uint64 { return p.earliest }

// Len returns the number of queued (unbound) contexts.
func (p *Pool) Len() int { return len(p.queue) }

// ReadyCount returns how many queued contexts are ready at now.
func (p *Pool) ReadyCount(now uint64) int {
	n := 0
	for _, vc := range p.queue {
		if vc.Ready(now) {
			n++
		}
	}
	return n
}

// PopReady removes and returns the first ready context in FIFO order,
// or nil if none is ready.
func (p *Pool) PopReady(now uint64) *VirtualContext {
	if p.earliest > now {
		return nil
	}
	for i, vc := range p.queue {
		if vc.Ready(now) {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			p.Steals++
			return vc
		}
	}
	// Nothing ready: tighten the bound so callers skip future scans.
	p.earliest = ^uint64(0)
	for _, vc := range p.queue {
		if vc.ReadyAt < p.earliest {
			p.earliest = vc.ReadyAt
		}
	}
	return nil
}

// Push returns a context to the tail of the run queue; readyAt records
// when its pending stall (if any) resolves.
func (p *Pool) Push(vc *VirtualContext, readyAt uint64) {
	vc.ReadyAt = readyAt
	if readyAt < p.earliest {
		p.earliest = readyAt
	}
	p.queue = append(p.queue, vc)
	p.Returns++
}

// Scheduler time-multiplexes a Pool onto an InOCore's physical contexts.
type Scheduler struct {
	core *cpu.InOCore
	pool *Pool

	// SwapLat is the context swap cost in cycles (dump + load of 32
	// architectural registers through the dedicated run-queue memory).
	SwapLat uint64
	// Quantum is the round-robin preemption interval in cycles
	// (Section IV: 100µs).
	Quantum uint64

	bound   []*VirtualContext
	boundAt []uint64
	// now mirrors the cycle last passed to Step, so the OnRemote hook
	// (which receives only a completion time) can stamp events.
	now uint64

	// Swaps counts stall-triggered context switches; Preempts counts
	// quantum-expiry switches.
	Swaps, Preempts uint64

	// Telemetry, when non-nil, receives FillerBorrow/FillerEvict events
	// for every bind and unbind; nil costs one check per scheduling
	// action.
	Telemetry telemetry.Sink
	// TelemetrySrc tags emitted events with the owning component
	// (telemetry.SrcLender for the lender-core's scheduler,
	// telemetry.SrcFiller for a master-core's filler engine).
	TelemetrySrc uint8
}

// DefaultSwapLat is the modelled swap cost: spilling and filling 32
// architectural registers at 4 per cycle through the run-queue memory.
const DefaultSwapLat = 16

// QuantumCycles returns the 100µs quantum at freqGHz.
func QuantumCycles(freqGHz float64) uint64 {
	return cpu.CyclesFromNs(100_000, freqGHz)
}

// NewScheduler attaches a scheduler to core and pool. It installs the
// core's OnRemote hook; the caller must not overwrite it.
func NewScheduler(core *cpu.InOCore, pool *Pool, swapLat, quantum uint64) (*Scheduler, error) {
	if core == nil || pool == nil {
		return nil, fmt.Errorf("hsmt: scheduler needs a core and a pool")
	}
	if quantum == 0 {
		return nil, fmt.Errorf("hsmt: zero quantum would starve queued contexts")
	}
	s := &Scheduler{
		core: core, pool: pool, SwapLat: swapLat, Quantum: quantum,
		bound:   make([]*VirtualContext, core.Slots()),
		boundAt: make([]uint64, core.Slots()),
	}
	core.OnRemote = s.handleRemote
	return s, nil
}

// Core returns the scheduled datapath.
func (s *Scheduler) Core() *cpu.InOCore { return s.core }

// Pool returns the run queue this scheduler draws from. Two schedulers
// attached to one pool (a dyad's lender and a master-core's filler
// engine) interact only through it, which is what the event engine's
// cross-component wake invalidation keys on.
func (s *Scheduler) Pool() *Pool { return s.pool }

// BoundCount returns the number of occupied physical contexts.
func (s *Scheduler) BoundCount() int {
	n := 0
	for _, vc := range s.bound {
		if vc != nil {
			n++
		}
	}
	return n
}

// handleRemote swaps out a context that issued a µs-scale remote op,
// returning it to the run-queue tail, and binds a ready replacement.
func (s *Scheduler) handleRemote(slot int, _ isa.Instr, completeAt uint64) cpu.RemoteAction {
	vc := s.bound[slot]
	if vc == nil {
		return cpu.RemoteBlock
	}
	_, vc.Pending = s.core.UnbindInto(slot, vc.Pending[:0])
	s.pool.Push(vc, completeAt)
	s.bound[slot] = nil
	s.Swaps++
	if s.Telemetry != nil {
		s.Telemetry.Emit(telemetry.Event{Cycle: s.now, Kind: telemetry.EvFillerEvict,
			Src: s.TelemetrySrc, A: uint64(vc.ID), B: telemetry.EvictStall})
	}
	// A replacement is bound on the next Step; physical context pays the
	// swap cost there.
	return cpu.RemoteHandled
}

// Step performs scheduling decisions for cycle now. Call once per cycle,
// before the core's Step.
func (s *Scheduler) Step(now uint64) {
	s.now = now
	for i := range s.bound {
		vc := s.bound[i]
		if vc == nil {
			if next := s.pool.PopReady(now); next != nil {
				s.bind(i, next, now)
			}
			continue
		}
		// Quantum preemption, only if someone ready is waiting.
		if now-s.boundAt[i] >= s.Quantum && s.pool.EarliestReady() <= now && s.pool.ReadyCount(now) > 0 {
			_, vc.Pending = s.core.UnbindInto(i, vc.Pending[:0])
			s.pool.Push(vc, now)
			s.bound[i] = nil
			s.Preempts++
			if s.Telemetry != nil {
				s.Telemetry.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvFillerEvict,
					Src: s.TelemetrySrc, A: uint64(vc.ID), B: telemetry.EvictPreempt})
			}
			if next := s.pool.PopReady(now); next != nil {
				s.bind(i, next, now)
			}
		}
	}
}

func (s *Scheduler) bind(slot int, vc *VirtualContext, now uint64) {
	s.core.Bind(slot, vc.Stream, now, s.SwapLat)
	if len(vc.Pending) > 0 {
		s.core.Preload(slot, vc.Pending)
		// Keep the backing array: the next swap-out reuses it via
		// UnbindInto, so steady-state context churn does not allocate.
		vc.Pending = vc.Pending[:0]
	}
	s.bound[slot] = vc
	s.boundAt[slot] = now
	vc.Binds++
	if s.Telemetry != nil {
		s.Telemetry.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvFillerBorrow,
			Src: s.TelemetrySrc, A: uint64(vc.ID), B: uint64(slot)})
	}
}

// EvictAll unbinds every context back to the run queue (the master-core
// evicting filler-threads when the master-thread becomes ready). Contexts
// remain ready; their register state is spilled via the L0 by the caller,
// which charges the restart latency.
func (s *Scheduler) EvictAll(now uint64) int {
	n := 0
	for i := range s.bound {
		if s.bound[i] == nil {
			continue
		}
		vc := s.bound[i]
		_, vc.Pending = s.core.UnbindInto(i, vc.Pending[:0])
		s.pool.Push(vc, now)
		s.bound[i] = nil
		n++
		if s.Telemetry != nil {
			s.Telemetry.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvFillerEvict,
				Src: s.TelemetrySrc, A: uint64(vc.ID), B: telemetry.EvictMasterRestart})
		}
	}
	return n
}

// StepCore runs one scheduled cycle: scheduling decisions then the
// datapath cycle.
func (s *Scheduler) StepCore(now uint64) {
	s.Step(now)
	s.core.Step(now)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// NextEvent returns the earliest cycle >= now at which the scheduler
// could take an action: binding a queued context into an empty slot, or
// quantum-preempting a bound one in favour of a ready waiter. The bound
// is conservative — Pool.EarliestReady may be stale-low, so the result
// can be spuriously early (the caller simply steps and the pool tightens
// its bound), never late. The datapath's own events are priced
// separately by the InOCore's NextEvent.
func (s *Scheduler) NextEvent(now uint64) uint64 {
	ev := uint64(cpu.NoEvent)
	if s.pool.Len() == 0 {
		return ev // no queued context: nothing to bind or preempt for
	}
	ready := s.pool.EarliestReady()
	for i := range s.bound {
		var cand uint64
		if s.bound[i] == nil {
			cand = ready
		} else {
			cand = max64(s.boundAt[i]+s.Quantum, ready)
		}
		if cand <= now {
			return now
		}
		if cand < ev {
			ev = cand
		}
	}
	return ev
}

// SkipCycles advances the scheduler across a quiescent span. The
// scheduler keeps no per-cycle counters — its only per-cycle effects are
// pool-bound tightening (a pure cache) — so only the cycle mirror used
// for telemetry stamping moves.
func (s *Scheduler) SkipCycles(now, n uint64) { s.now = now + n }
