package cpu

import (
	"fmt"

	"duplexity/internal/bpred"
	"duplexity/internal/isa"
	"duplexity/internal/memsys"
	"duplexity/internal/telemetry"
)

// RemoteAction tells the engine how an issued remote operation will be
// handled.
type RemoteAction int

const (
	// RemoteBlock leaves the thread resident and blocked until the
	// remote operation completes (Baseline/SMT behaviour).
	RemoteBlock RemoteAction = iota
	// RemoteHandled means an external scheduler (HSMT pool or morph
	// controller) takes over: the engine takes no further action for the
	// slot, and the scheduler will typically swap the context out.
	RemoteHandled
)

// InOSlot is one physical context of the in-order SMT datapath. The
// fields issue and fetch test for every slot on every cycle come first,
// so they share the struct's first cache line.
type InOSlot struct {
	active bool
	// fetchBlocked latches fetch off between a mispredicted branch's
	// fetch and its issue (resolution); the redirect penalty is charged
	// when the branch issues.
	fetchBlocked bool
	// unavailableUntil models context swap-in latency.
	unavailableUntil uint64
	// blockedUntil is the completion time of an engine-managed remote op.
	blockedUntil uint64
	// headWakeAt caches the cycle at which the head instruction's sources
	// become ready; the issue loop skips the slot until then. Reset to 0
	// whenever the head changes.
	headWakeAt    uint64
	fetchResumeAt uint64
	// buf is the fetch buffer, a ring of bufN instructions starting at
	// bufHead: pushes and pops move no other entry.
	buf      []isa.Instr
	bufHead  int
	bufN     int
	stream   isa.Stream
	lastLine uint64
	idx      int // position in InOCore.slots

	Stats ThreadStats

	regReadyAt [isa.NumArchRegs]uint64
}

// Active reports whether a context is bound to the slot.
func (s *InOSlot) Active() bool { return s.active }

// bufLen returns the fetch-buffer occupancy.
func (s *InOSlot) bufLen() int { return s.bufN }

// popBuf removes and returns the oldest buffered instruction.
func (s *InOSlot) popBuf() isa.Instr {
	in := s.buf[s.bufHead]
	s.bufHead = wrapInc(s.bufHead, len(s.buf))
	s.bufN--
	return in
}

// pushBuf appends to the fetch buffer. Fetch pushes only while fewer
// than FetchBufEntries instructions are buffered, and the ring holds at
// least that many, so it is never full here.
func (s *InOSlot) pushBuf(in isa.Instr) {
	i := s.bufHead + s.bufN
	if i >= len(s.buf) {
		i -= len(s.buf)
	}
	s.buf[i] = in
	s.bufN++
}

// pending appends the buffered instructions, oldest first, to dst.
func (s *InOSlot) pending(dst []isa.Instr) []isa.Instr {
	if end := s.bufHead + s.bufN; end <= len(s.buf) {
		return append(dst, s.buf[s.bufHead:end]...)
	}
	dst = append(dst, s.buf[s.bufHead:]...)
	return append(dst, s.buf[:s.bufHead+s.bufN-len(s.buf)]...)
}

// resetBuf makes instrs the buffer's contents, growing the ring if they
// do not fit.
func (s *InOSlot) resetBuf(instrs []isa.Instr) {
	if len(instrs) > len(s.buf) {
		s.buf = make([]isa.Instr, len(instrs))
	}
	copy(s.buf, instrs)
	s.bufHead = 0
	s.bufN = len(instrs)
}

// Blocked reports whether the slot is blocked on a remote op at now.
func (s *InOSlot) Blocked(now uint64) bool { return s.blockedUntil > now }

// InOCore is the in-order SMT datapath of Table I's lender-core: 8
// physical contexts, 4-wide issue, round-robin fetch, shared gshare
// predictor and shared L1 ports. It is also the master-core's
// filler-thread engine (with dyad remote ports substituted).
type InOCore struct {
	cfg   PipelineConfig
	iport *memsys.Port
	dport *memsys.Port
	pred  *bpred.Unit

	slots   []*InOSlot
	fetchRR int
	issueRR int

	Stats CoreStats

	// OnRemote, if set, is consulted when a slot issues a remote op.
	OnRemote func(slot int, in isa.Instr, completeAt uint64) RemoteAction
	// OnRequestEnd, if set, is called when a slot issues an
	// EndOfRequest-marked instruction.
	OnRequestEnd func(slot int, now uint64)

	// Telemetry, when non-nil, receives cache-miss burst events; each
	// emission site costs one nil check when disabled.
	Telemetry telemetry.Sink
	// TelemetrySrc tags emitted events with the owning component.
	TelemetrySrc uint8
}

// NewInOCore builds an in-order SMT core with nSlots physical contexts.
func NewInOCore(cfg PipelineConfig, nSlots int, iport, dport *memsys.Port, pred *bpred.Unit) (*InOCore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nSlots <= 0 {
		return nil, fmt.Errorf("cpu: need at least one InO slot")
	}
	if err := iport.Validate(); err != nil {
		return nil, err
	}
	if err := dport.Validate(); err != nil {
		return nil, err
	}
	c := &InOCore{cfg: cfg, iport: iport, dport: dport, pred: pred}
	c.slots = make([]*InOSlot, nSlots)
	for i := range c.slots {
		c.slots[i] = &InOSlot{idx: i, buf: make([]isa.Instr, cfg.FetchBufEntries)}
	}
	return c, nil
}

// Config returns the core's pipeline configuration.
func (c *InOCore) Config() PipelineConfig { return c.cfg }

// Slots returns the number of physical contexts.
func (c *InOCore) Slots() int { return len(c.slots) }

// Slot returns physical context i.
func (c *InOCore) Slot(i int) *InOSlot { return c.slots[i] }

// Bind attaches a context's stream to slot i, charging swapLat cycles of
// unavailability (loading architectural registers from the run queue).
// The slot's scoreboard resets: all registers become ready at now+swapLat.
func (c *InOCore) Bind(slot int, stream isa.Stream, now, swapLat uint64) {
	s := c.slots[slot]
	s.stream = stream
	s.active = true
	s.bufHead, s.bufN = 0, 0
	s.unavailableUntil = now + swapLat
	s.blockedUntil = 0
	s.fetchResumeAt = 0
	s.headWakeAt = 0
	s.fetchBlocked = false
	s.lastLine = ^uint64(0)
	for r := range s.regReadyAt {
		s.regReadyAt[r] = now + swapLat
	}
}

// Unbind detaches slot i, returning its stream and any fetched-but-not-
// issued instructions (which belong to the context and must be replayed
// when it is next bound — streams are consuming generators). Statistics
// remain with the slot (per-physical-context, matching hardware counters).
func (c *InOCore) Unbind(slot int) (isa.Stream, []isa.Instr) {
	return c.UnbindInto(slot, nil)
}

// UnbindInto is Unbind with a caller-supplied destination for the
// pending instructions (typically the context's previous Pending slice,
// truncated), so steady-state context churn does not allocate.
func (c *InOCore) UnbindInto(slot int, dst []isa.Instr) (isa.Stream, []isa.Instr) {
	s := c.slots[slot]
	st := s.stream
	dst = s.pending(dst)
	s.stream = nil
	s.active = false
	s.bufHead, s.bufN = 0, 0
	return st, dst
}

// Preload seeds slot i's fetch buffer with a previously unbound context's
// pending instructions. Call immediately after Bind.
func (c *InOCore) Preload(slot int, instrs []isa.Instr) {
	s := c.slots[slot]
	s.resetBuf(instrs)
	s.headWakeAt = 0
}

// wrapInc returns i+1 modulo n for i in [0, n): the round-robin and
// ring-buffer step, without a division.
func wrapInc(i, n int) int {
	i++
	if i == n {
		return 0
	}
	return i
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Step simulates one cycle at global time now. Phases: issue first (using
// last cycle's buffers), then fetch — so an instruction cannot be fetched
// and issued in the same cycle.
func (c *InOCore) Step(now uint64) {
	c.Stats.Cycles++
	c.issue(now)
	c.fetch(now)
}

func (c *InOCore) issue(now uint64) {
	total := c.cfg.Width
	ldst, fp, mul, ialu := c.cfg.LdStPorts, c.cfg.FPUs, c.cfg.Muls, c.cfg.IntALUs
	n := len(c.slots)
	idx := c.issueRR
	c.issueRR = wrapInc(c.issueRR, n)
	for k := 0; k < n && total > 0; k, idx = k+1, wrapInc(idx, n) {
		s := c.slots[idx]
		if !s.active || s.unavailableUntil > now || s.blockedUntil > now {
			continue
		}
		if s.headWakeAt > now {
			continue
		}
		for total > 0 && s.bufLen() > 0 {
			in := s.buf[s.bufHead]
			if wake := max64(s.regReadyAt[in.Src1], s.regReadyAt[in.Src2]); wake > now {
				s.headWakeAt = wake
				break // in-order: head not ready blocks the slot
			}
			// Structural hazards (OpPark needs no functional unit).
			switch in.Op {
			case isa.OpLoad, isa.OpStore, isa.OpRemote:
				if ldst == 0 {
					goto nextSlot
				}
			case isa.OpPark:
			case isa.OpFPAlu:
				if fp == 0 {
					goto nextSlot
				}
			case isa.OpIntMul:
				if mul == 0 {
					goto nextSlot
				}
			default:
				if ialu == 0 {
					goto nextSlot
				}
			}
			s.popBuf()
			s.headWakeAt = 0
			total--
			c.Stats.IssueSlotsUsed++
			switch in.Op {
			case isa.OpLoad:
				ldst--
				lat := uint64(c.dport.Access(now, in.Addr, false))
				if in.Dst != isa.RegNone {
					s.regReadyAt[in.Dst] = now + lat
				}
				if c.Telemetry != nil && lat >= memsys.LLCHitLat {
					c.Telemetry.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvCacheMiss,
						Src: c.TelemetrySrc, A: lat, B: uint64(c.slotIndex(s))})
				}
			case isa.OpStore:
				ldst--
				c.dport.Access(now, in.Addr, true)
			case isa.OpRemote, isa.OpPark:
				if in.Op == isa.OpRemote {
					ldst--
					s.Stats.Remotes++
				}
				completeAt := now + CyclesFromNs(in.RemoteNs, c.cfg.FreqGHz)
				action := RemoteBlock
				if c.OnRemote != nil {
					action = c.OnRemote(c.slotIndex(s), in, completeAt)
				}
				if action == RemoteBlock {
					s.blockedUntil = completeAt
					if in.Op == isa.OpRemote {
						// Engine-managed remote: the slot blocks in place
						// for the full device latency.
						s.Stats.RemoteStallCycles += completeAt - now
					}
					if in.Dst != isa.RegNone {
						s.regReadyAt[in.Dst] = completeAt
					}
				}
			case isa.OpFPAlu:
				fp--
				if in.Dst != isa.RegNone {
					s.regReadyAt[in.Dst] = now + LatFPAlu
				}
			case isa.OpIntMul:
				mul--
				if in.Dst != isa.RegNone {
					s.regReadyAt[in.Dst] = now + LatIntMul
				}
			default:
				ialu--
				if in.Dst != isa.RegNone {
					s.regReadyAt[in.Dst] = now + LatIntAlu
				}
			}
			s.Stats.Retired++
			c.Stats.TotalRetired++
			if in.EndOfRequest {
				s.Stats.RequestsCompleted++
				if c.OnRequestEnd != nil {
					c.OnRequestEnd(c.slotIndex(s), now)
				}
			}
			if in.Op == isa.OpBranch && s.fetchBlocked && s.bufLen() == 0 {
				// The mispredicted branch (always the last fetched) just
				// resolved: charge the front-end redirect from here.
				s.fetchBlocked = false
				s.fetchResumeAt = now + uint64(c.cfg.MispredictPenalty)
			}
			if (in.Op == isa.OpRemote || in.Op == isa.OpPark) && s.blockedUntil > now {
				goto nextSlot // blocked: stop issuing from this slot
			}
		}
	nextSlot:
	}
}

func (c *InOCore) slotIndex(s *InOSlot) int { return s.idx }

func (c *InOCore) fetch(now uint64) {
	budget := c.cfg.Width
	n := len(c.slots)
	idx := c.fetchRR
	c.fetchRR = wrapInc(c.fetchRR, n)
	fetchedAny := false
	for k := 0; k < n && budget > 0; k, idx = k+1, wrapInc(idx, n) {
		s := c.slots[idx]
		if !s.active || s.unavailableUntil > now || s.blockedUntil > now ||
			s.fetchResumeAt > now || s.fetchBlocked {
			continue
		}
		for budget > 0 && s.bufLen() < c.cfg.FetchBufEntries {
			in, ok := s.stream.Next(now)
			if !ok {
				if s.bufLen() == 0 {
					s.Stats.IdleCycles++
				}
				break
			}
			// Instruction-cache access on line crossing.
			line := in.PC >> 6
			if line != s.lastLine {
				s.lastLine = line
				ilat := uint64(c.iport.Access(now, in.PC, false))
				if ilat > uint64(c.iport.L1.HitLatency()) {
					s.fetchResumeAt = now + ilat
				}
			}
			if s.bufLen() == 0 {
				s.headWakeAt = 0 // head is changing
			}
			s.pushBuf(in)
			budget--
			fetchedAny = true
			if in.Op == isa.OpBranch {
				if c.pred.PredictAndTrain(in) {
					// Fetch stalls until the branch issues (resolution);
					// the redirect penalty is charged there.
					s.fetchBlocked = true
					break
				}
				if in.Taken {
					break // taken-branch fetch break
				}
			}
			if s.fetchResumeAt > now {
				break // I-cache miss stalls further fetch
			}
		}
	}
	if !fetchedAny {
		c.Stats.FetchStallCycles++
	}
}

// NextEvent returns the earliest cycle >= now at which the core's
// observable state can change: now if any slot would issue or fetch this
// cycle, otherwise the minimum over swap-in completions, remote-block
// completions, head wake-up times, fetch resumes, and stream arrival
// events (NoEvent if every slot is drained with no future work). The
// result is conservative: returning now is always legal.
func (c *InOCore) NextEvent(now uint64) uint64 {
	ev := uint64(NoEvent)
	for _, s := range c.slots {
		if !s.active {
			continue
		}
		gate := max64(s.unavailableUntil, s.blockedUntil)
		if s.bufLen() > 0 {
			if gate > now {
				if gate < ev {
					ev = gate
				}
			} else {
				in := s.buf[s.bufHead]
				wake := max64(s.regReadyAt[in.Src1], s.regReadyAt[in.Src2])
				if wake <= now {
					return now // head issues this cycle
				}
				if wake < ev {
					ev = wake
				}
			}
		}
		// Fetch side. fetchBlocked clears when the latched branch
		// issues, which the issue-side events above already price.
		if gate > now {
			if gate < ev {
				ev = gate
			}
			continue
		}
		if s.fetchBlocked {
			continue
		}
		if s.fetchResumeAt > now {
			if s.fetchResumeAt < ev {
				ev = s.fetchResumeAt
			}
			continue
		}
		if s.bufLen() >= c.cfg.FetchBufEntries {
			continue
		}
		w := streamNextWork(s.stream, now)
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
// cycles starting at now, exactly as n quiescent Step calls would:
// cycle and fetch-stall counters, idle cycles for fetch-eligible empty
// slots, and the fetch/issue round-robin pointers. The caller must have
// established now+n <= NextEvent(now).
func (c *InOCore) SkipCycles(now, n uint64) {
	c.Stats.Cycles += n
	c.Stats.FetchStallCycles += n
	nslots := uint64(len(c.slots))
	c.issueRR = int((uint64(c.issueRR) + n) % nslots)
	c.fetchRR = int((uint64(c.fetchRR) + n) % nslots)
	for _, s := range c.slots {
		if !s.active || s.fetchBlocked {
			continue
		}
		if s.unavailableUntil > now || s.blockedUntil > now || s.fetchResumeAt > now {
			continue
		}
		if s.bufLen() == 0 {
			// The slow path charges one idle cycle per eligible
			// empty-handed probe of the stream.
			s.Stats.IdleCycles += n
		}
	}
}
