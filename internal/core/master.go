package core

import (
	"duplexity/internal/cpu"
	"duplexity/internal/hsmt"
	"duplexity/internal/isa"
	"duplexity/internal/telemetry"
)

// Mode is the master-core's execution mode.
type Mode int

// Master-core modes (Section III-B).
const (
	// ModeMaster: single-threaded OoO execution of the master-thread.
	ModeMaster Mode = iota
	// ModeDraining: a µs-scale stall was demarcated; elder instructions
	// drain while younger ones have been flushed.
	ModeDraining
	// ModeFiller: the datapath has morphed to in-order HSMT and executes
	// borrowed filler-threads.
	ModeFiller
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeMaster:
		return "master"
	case ModeDraining:
		return "draining"
	default:
		return "filler"
	}
}

// fillerEngine abstracts the filler-thread execution engine: either a
// fixed 8-thread in-order SMT (MorphCore) or an HSMT scheduler over a
// dyad-shared virtual-context pool (MorphCore+, Duplexity variants).
type fillerEngine interface {
	// Step advances the filler datapath one cycle.
	Step(now uint64)
	// EvictAll removes all filler contexts (master-thread restart).
	EvictAll(now uint64)
	// Core exposes the underlying datapath for statistics.
	Core() *cpu.InOCore
	// NextEvent returns the earliest cycle >= now at which a Step could
	// change observable state (cpu.NoEvent if none is scheduled).
	NextEvent(now uint64) uint64
	// SkipCycles bulk-charges a quiescent span [now, now+n) exactly as n
	// per-cycle Steps would have.
	SkipCycles(now, n uint64)
	// pool returns the shared run queue the engine steals from and
	// returns to, nil for engines with private streams (fixedFiller).
	pool() *hsmt.Pool
	// setTelemetry attaches an event sink, tagging emissions with src.
	setTelemetry(sink telemetry.Sink, src uint8)
}

// hsmtFiller adapts an hsmt.Scheduler to the fillerEngine interface.
type hsmtFiller struct{ sched *hsmt.Scheduler }

func (h hsmtFiller) Step(now uint64)     { h.sched.StepCore(now) }
func (h hsmtFiller) EvictAll(now uint64) { h.sched.EvictAll(now) }
func (h hsmtFiller) Core() *cpu.InOCore  { return h.sched.Core() }
func (h hsmtFiller) NextEvent(now uint64) uint64 {
	ev := h.sched.NextEvent(now)
	if ce := h.sched.Core().NextEvent(now); ce < ev {
		ev = ce
	}
	return ev
}
func (h hsmtFiller) SkipCycles(now, n uint64) {
	h.sched.SkipCycles(now, n)
	h.sched.Core().SkipCycles(now, n)
}
func (h hsmtFiller) pool() *hsmt.Pool { return h.sched.Pool() }
func (h hsmtFiller) setTelemetry(sink telemetry.Sink, src uint8) {
	h.sched.Telemetry = sink
	h.sched.TelemetrySrc = src
}

// fixedFiller runs a fixed set of filler streams (MorphCore's 8 filler
// threads): no backing pool, threads block in place on µs-scale stalls.
type fixedFiller struct {
	core    *cpu.InOCore
	streams []isa.Stream
	pending [][]isa.Instr
	bound   bool

	sink    telemetry.Sink
	sinkSrc uint8
}

func newFixedFiller(core *cpu.InOCore, streams []isa.Stream) *fixedFiller {
	return &fixedFiller{core: core, streams: streams, pending: make([][]isa.Instr, len(streams))}
}

func (f *fixedFiller) Step(now uint64) {
	if !f.bound {
		for i, s := range f.streams {
			if i >= f.core.Slots() {
				break
			}
			f.core.Bind(i, s, now, 0) // swap cost charged via MorphInLat
			if len(f.pending[i]) > 0 {
				f.core.Preload(i, f.pending[i])
				// Keep the backing array for the next eviction's
				// UnbindInto, so morph churn does not allocate.
				f.pending[i] = f.pending[i][:0]
			}
			if f.sink != nil {
				f.sink.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvFillerBorrow,
					Src: f.sinkSrc, A: uint64(i), B: uint64(i)})
			}
		}
		f.bound = true
	}
	f.core.Step(now)
}

func (f *fixedFiller) EvictAll(now uint64) {
	if !f.bound {
		return
	}
	for i := 0; i < f.core.Slots(); i++ {
		if f.core.Slot(i).Active() {
			_, f.pending[i] = f.core.UnbindInto(i, f.pending[i][:0])
			if f.sink != nil {
				f.sink.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvFillerEvict,
					Src: f.sinkSrc, A: uint64(i), B: telemetry.EvictMasterRestart})
			}
		}
	}
	f.bound = false
}

func (f *fixedFiller) Core() *cpu.InOCore { return f.core }

func (f *fixedFiller) NextEvent(now uint64) uint64 {
	if !f.bound {
		return now // next Step binds the filler streams
	}
	return f.core.NextEvent(now)
}

func (f *fixedFiller) SkipCycles(now, n uint64) { f.core.SkipCycles(now, n) }

func (f *fixedFiller) pool() *hsmt.Pool { return nil }

func (f *fixedFiller) setTelemetry(sink telemetry.Sink, src uint8) {
	f.sink = sink
	f.sinkSrc = src
}

// MasterStats summarizes master-core mode activity.
type MasterStats struct {
	Morphs        uint64 // stall-triggered transitions to filler mode
	IdleMorphs    uint64 // idle-triggered transitions
	MasterCycles  uint64 // cycles in ModeMaster
	DrainCycles   uint64 // cycles draining
	FillerCycles  uint64 // cycles in ModeFiller
	RestartStalls uint64 // total master restart-latency cycles charged
}

// MasterCore is the morphable core of Section III-B: it executes its
// latency-critical master-thread on a 4-wide OoO engine and, whenever the
// master-thread stalls on a demarcated µs-scale operation or runs out of
// requests, drains, morphs into an in-order HSMT engine, and executes
// filler-threads until the master-thread becomes ready again.
type MasterCore struct {
	design     Design
	restartLat uint64
	ooo        *cpu.OoOCore
	filler     fillerEngine
	// signaler reports master-thread work availability without consuming
	// instructions; nil disables idle-triggered morphing.
	signaler cpu.WorkSignaler

	mode            Mode
	modeReadyAt     uint64 // cycle when the in-progress morph completes
	stalledOnRemote bool
	remoteReadyAt   uint64
	// now mirrors the cycle last passed to Step, so the OnRemote hook
	// (which receives only a completion time) can stamp events.
	now uint64
	// morphStart records the cycle the in-progress morph began, so resume
	// paths can report (and charge) the master-thread's away time.
	morphStart uint64

	// Telemetry, when non-nil, receives Morph and MasterRestart events;
	// nil costs one check per mode transition.
	Telemetry telemetry.Sink
	// TelemetrySrc tags emitted events (telemetry.SrcMaster).
	TelemetrySrc uint8

	Stats MasterStats
}

// NewMasterCore assembles a master-core from its two engines. The ooo
// engine must have exactly one thread (the master-thread); its OnRemote
// hook is installed by the master-core.
func NewMasterCore(design Design, ooo *cpu.OoOCore, filler fillerEngine, signaler cpu.WorkSignaler) *MasterCore {
	m := &MasterCore{
		design: design, restartLat: design.RestartLat(),
		ooo: ooo, filler: filler, signaler: signaler,
	}
	ooo.OnRemote = m.onRemote
	return m
}

// SetRestartLat overrides the design's master-thread restart latency
// (used by the restart-latency ablation study).
func (m *MasterCore) SetRestartLat(cycles uint64) { m.restartLat = cycles }

// Mode returns the current execution mode.
func (m *MasterCore) Mode() Mode { return m.mode }

// FillerCore exposes the filler-thread datapath.
func (m *MasterCore) FillerCore() *cpu.InOCore { return m.filler.Core() }

// runQueue returns the dyad-shared context pool the filler engine draws
// from, nil when the engine runs private streams (MorphCore).
func (m *MasterCore) runQueue() *hsmt.Pool { return m.filler.pool() }

// onRemote fires when the master-thread issues a µs-scale operation:
// demarcate the stall, flush younger work, and begin draining.
func (m *MasterCore) onRemote(tid int, _ isa.Instr, completeAt uint64) cpu.RemoteAction {
	if m.mode != ModeMaster {
		return cpu.RemoteBlock
	}
	m.stalledOnRemote = true
	m.remoteReadyAt = completeAt
	m.ooo.HaltFetch(tid)
	m.ooo.SquashYoungerThanRemote(tid)
	m.mode = ModeDraining
	m.morphStart = m.now
	m.Stats.Morphs++
	if m.Telemetry != nil {
		m.Telemetry.Emit(telemetry.Event{Cycle: m.now, Kind: telemetry.EvMorph,
			Src: m.TelemetrySrc, A: 1})
	}
	return cpu.RemoteHandled
}

// masterReady reports whether the master-thread can resume at now.
func (m *MasterCore) masterReady(now uint64) bool {
	if m.stalledOnRemote {
		return now >= m.remoteReadyAt
	}
	return m.signaler != nil && m.signaler.HasWork(now)
}

// Step advances the master-core one cycle.
func (m *MasterCore) Step(now uint64) {
	m.now = now
	switch m.mode {
	case ModeMaster:
		m.Stats.MasterCycles++
		m.ooo.Step(now)
		// Idle-triggered morph: no in-flight work and no pending request.
		if m.mode == ModeMaster && m.signaler != nil &&
			m.ooo.Drained(0) && !m.signaler.HasWork(now) {
			m.stalledOnRemote = false
			m.ooo.HaltFetch(0)
			m.mode = ModeDraining
			m.morphStart = now
			m.Stats.IdleMorphs++
			if m.Telemetry != nil {
				m.Telemetry.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvMorph,
					Src: m.TelemetrySrc, A: 0})
			}
		}

	case ModeDraining:
		m.Stats.DrainCycles++
		m.ooo.Step(now)
		switch {
		case m.stalledOnRemote && m.ooo.DrainedToRemote(0):
			// Refresh the wake-up time from the actual head remote (the
			// oldest remote may differ from the one that triggered).
			if ca, ok := m.ooo.HeadRemoteCompletion(0); ok {
				m.remoteReadyAt = ca
			}
			if now >= m.remoteReadyAt {
				// The stall resolved while draining: resume immediately;
				// no fillers ran, so no eviction or restart penalty.
				m.resumeWithoutFillers(now)
				return
			}
			m.mode = ModeFiller
			m.modeReadyAt = now + MorphInLat
		case m.stalledOnRemote && m.ooo.Drained(0):
			// The remote completed and committed before the drain
			// finished (short stall): resume directly.
			m.resumeWithoutFillers(now)
		case !m.stalledOnRemote && m.ooo.Drained(0):
			m.mode = ModeFiller
			m.modeReadyAt = now + MorphInLat
		}

	case ModeFiller:
		if m.masterReady(now) {
			m.resumeMaster(now)
			// The restart window counts as master cycles; the OoO engine
			// steps again from the next cycle.
			m.Stats.MasterCycles++
			m.ooo.Step(now)
			return
		}
		m.Stats.FillerCycles++
		if now >= m.modeReadyAt {
			m.filler.Step(now)
		}
	}
}

// NextEvent returns the earliest cycle >= now at which a Step could
// change observable state, per mode: the OoO engine's own events in
// master/draining modes (plus "now" whenever a mode transition would
// fire this cycle), and the master-ready time, morph-in completion, and
// filler-engine events in filler mode. Conservative: returning now is
// always legal and merely prevents a skip.
func (m *MasterCore) NextEvent(now uint64) uint64 {
	switch m.mode {
	case ModeMaster:
		// An idle-triggered morph fires the same cycle its condition
		// holds, and the condition can only become true at an OoO event
		// (commit draining the ROB) or a stream arrival — both priced
		// by the engine's NextEvent.
		if m.signaler != nil && m.ooo.Drained(0) {
			if !m.signaler.HasWork(now) {
				return now
			}
			// Drained with work pending: Step polls the signaler every
			// cycle (the idle-morph check), and each poll admits — and
			// emits — due arrivals. The wake must therefore price the
			// next arrival itself, not just the engine's events: inside
			// a restart window the engine is fetch-ineligible and its
			// NextEvent never consults the stream, yet the per-cycle
			// polls still admit arrivals the moment they land.
			ev := m.ooo.NextEvent(now)
			sig, ok := m.signaler.(isa.Eventer)
			if !ok {
				return now // cannot bound the poll: check every cycle
			}
			if w := sig.NextWorkAt(now); w < ev {
				ev = w
			}
			return ev
		}
		return m.ooo.NextEvent(now)

	case ModeDraining:
		// Drain-complete checks run every cycle; once they hold the
		// transition fires immediately.
		if m.ooo.DrainedToRemote(0) || m.ooo.Drained(0) {
			return now
		}
		return m.ooo.NextEvent(now)

	default: // ModeFiller
		var ev uint64 = cpu.NoEvent
		// Master-thread wake-up.
		if m.stalledOnRemote {
			if m.remoteReadyAt <= now {
				return now
			}
			ev = m.remoteReadyAt
		} else if sig, ok := m.signaler.(isa.Eventer); ok {
			w := sig.NextWorkAt(now)
			if w <= now {
				return now
			}
			if w < ev {
				ev = w
			}
		} else {
			return now // cannot bound HasWork: check every cycle
		}
		// Filler side: parked until the morph-in completes, then the
		// engine's own events.
		if now < m.modeReadyAt {
			if m.modeReadyAt < ev {
				ev = m.modeReadyAt
			}
		} else if fe := m.filler.NextEvent(now); fe < ev {
			ev = fe
		}
		return ev
	}
}

// SkipCycles bulk-charges a quiescent span [now, now+n) exactly as n
// per-cycle Steps would: the mode-cycle counter, plus the active
// engine's own per-cycle state. The caller must have established
// now+n <= NextEvent(now). In filler mode the OoO engine is not stepped
// (it holds no cycle charges), and the filler engine is charged only
// once its morph-in latency has elapsed.
func (m *MasterCore) SkipCycles(now, n uint64) {
	m.now = now + n
	switch m.mode {
	case ModeMaster:
		m.Stats.MasterCycles += n
		m.ooo.SkipCycles(now, n)
	case ModeDraining:
		m.Stats.DrainCycles += n
		m.ooo.SkipCycles(now, n)
	default: // ModeFiller
		m.Stats.FillerCycles += n
		if now >= m.modeReadyAt {
			m.filler.SkipCycles(now, n)
		}
		// now < modeReadyAt implies the whole span predates the
		// morph-in completion (NextEvent capped it), so the filler
		// engine was never stepped and takes no charges.
	}
}

// resumeWithoutFillers returns to master mode from a drain whose stall
// resolved before any filler-thread ran: master state is fully intact.
func (m *MasterCore) resumeWithoutFillers(now uint64) {
	m.ooo.ResumeFetch(0, now)
	if m.stalledOnRemote {
		// Controller-managed remote: charge the cycles the morph machinery
		// held the master-thread (the engine charged nothing at issue).
		m.ooo.AddRemoteStall(0, now-m.morphStart)
	}
	m.stalledOnRemote = false
	m.mode = ModeMaster
	if m.Telemetry != nil {
		m.Telemetry.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvMasterRestart,
			Src: m.TelemetrySrc, A: 0, B: now - m.morphStart})
	}
}

// resumeMaster evicts filler-threads and restarts the master-thread.
// Pending filler instructions are squashed immediately; filler register
// state spills through the L0 (Duplexity) or via microcode (MorphCore),
// which is charged as the design's restart latency before fetch resumes.
func (m *MasterCore) resumeMaster(now uint64) {
	m.filler.EvictAll(now)
	m.Stats.RestartStalls += m.restartLat
	m.ooo.ResumeFetch(0, now+m.restartLat)
	if m.stalledOnRemote {
		// Controller-managed remote: charge the parked window (the restart
		// penalty itself is tracked separately in Stats.RestartStalls).
		m.ooo.AddRemoteStall(0, now-m.morphStart)
	}
	m.stalledOnRemote = false
	m.mode = ModeMaster
	if m.Telemetry != nil {
		m.Telemetry.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvMasterRestart,
			Src: m.TelemetrySrc, A: m.restartLat, B: now - m.morphStart})
	}
}
