package cpu

import (
	"fmt"

	"duplexity/internal/bpred"
	"duplexity/internal/isa"
	"duplexity/internal/memsys"
	"duplexity/internal/telemetry"
)

type robState uint8

const (
	robWaiting robState = iota
	robIssued
	robDone
)

// robEntry is one in-flight instruction.
type robEntry struct {
	seq        uint64
	in         isa.Instr
	state      robState
	completeAt uint64
	// producer links: the ROB positions (and seqs, for liveness checks)
	// of the instructions producing this entry's sources.
	prod [2]prodLink
	// resource flags for refunds.
	hasPhys, inLQ, inSQ bool
	mispredicted        bool
}

type prodLink struct {
	valid bool
	pos   int // ring index within the same thread's ROB
	seq   uint64
}

// oooThread is one hardware context of the OoO engine.
type oooThread struct {
	stream isa.Stream

	// rob is a ring buffer; head is the oldest entry.
	rob        []robEntry
	head, size int
	nextSeq    uint64

	// regProducer maps each architectural register to the ROB position of
	// its latest in-flight writer.
	regProducer [isa.NumArchRegs]prodLink

	// fetchBuf is consumed from fetchHead (a ring-head index, so the
	// steady-state pop does not shed backing-array capacity the way
	// re-slicing with [1:] would — dispatch pops every cycle, and the
	// lost capacity would force an allocation every few instructions).
	fetchBuf  []isa.Instr
	fetchHead int
	// replay holds squashed-but-not-retired instructions that must be
	// re-fetched in program order before pulling from the stream again
	// (a stream is a consuming generator, so squashed work would
	// otherwise be silently lost). Consumed from replayHead; squashBuf
	// is the double-buffer SquashYoungerThanRemote rebuilds into, so
	// steady-state morph churn does not allocate.
	replay        []isa.Instr
	replayHead    int
	squashBuf     []isa.Instr
	fetchResumeAt uint64
	fetchBlocked  bool // fetch disabled until mispredicted branch resolves
	// pendingMispredict marks that the last fetch-buffer entry is a
	// mispredicted branch whose ROB entry must carry the flag.
	pendingMispredict bool
	lastLine          uint64
	fetchHalted       bool // controller-requested fetch stop (morphing)

	iqCount, lqCount, sqCount, physCount int

	// minCompleteAt lower-bounds the earliest completion time of any
	// issued-but-not-done entry (NoEvent when none): complete() skips its
	// ROB scan until the bound elapses, and NextEvent uses it directly.
	// The bound may be stale-low after a squash (harmless: one spurious
	// scan recomputes it), never stale-high.
	minCompleteAt uint64

	// noReady memoizes "a full issue scan found no ready waiting entry",
	// letting issue() and NextEvent skip the O(ROB) readiness scan on the
	// cycles a µs-scale stall pins the in-order window. Readiness is a
	// pure function of producer done-ness, so it can only appear at a
	// completion (complete clears the memo when any entry turns done), a
	// dispatch (a new entry may have no live producers), or a squash
	// (cleared conservatively). Clearing is always safe: it re-pays one
	// scan.
	noReady bool

	Stats ThreadStats
}

func (t *oooThread) inflight() int { return t.size + t.fetchLen() }

// fetchLen returns the fetch-buffer occupancy.
func (t *oooThread) fetchLen() int { return len(t.fetchBuf) - t.fetchHead }

// popFetch removes and returns the oldest fetch-buffer entry.
func (t *oooThread) popFetch() isa.Instr {
	in := t.fetchBuf[t.fetchHead]
	t.fetchHead++
	if t.fetchHead == len(t.fetchBuf) {
		t.fetchBuf = t.fetchBuf[:0]
		t.fetchHead = 0
	}
	return in
}

// pushFetch appends to the fetch buffer, compacting the consumed head
// region instead of growing the backing array.
func (t *oooThread) pushFetch(in isa.Instr) {
	if len(t.fetchBuf) == cap(t.fetchBuf) && t.fetchHead > 0 {
		n := copy(t.fetchBuf, t.fetchBuf[t.fetchHead:])
		t.fetchBuf = t.fetchBuf[:n]
		t.fetchHead = 0
	}
	t.fetchBuf = append(t.fetchBuf, in)
}

// replayLen returns the number of pending replay instructions.
func (t *oooThread) replayLen() int { return len(t.replay) - t.replayHead }

// robAt returns the entry at ring offset i from head (0 = oldest).
func (t *oooThread) robAt(i int) *robEntry { return &t.rob[t.ringPos(i)] }

// ringPos returns the ROB index at ring offset i from head. Callers pass
// i <= len(rob) and head < len(rob), so one conditional subtraction
// wraps the position.
func (t *oooThread) ringPos(i int) int {
	p := t.head + i
	if p >= len(t.rob) {
		p -= len(t.rob)
	}
	return p
}

// OoOCore is the 4-wide out-of-order superscalar engine from Table I,
// supporting one or more SMT threads with ICOUNT fetch, optional SMT+
// prioritization/partitioning, and the controller hooks the master-core
// uses for morphing (fetch halt, squash-younger, drain detection).
type OoOCore struct {
	cfg   PipelineConfig
	iport *memsys.Port
	dport *memsys.Port
	pred  *bpred.Unit

	threads []*oooThread
	rrPtr   int
	// orderBuf is the scratch slice issue and fetch build their
	// thread-priority order in each cycle (capacity len(threads), so the
	// per-cycle ordering never allocates in steady state).
	orderBuf []int

	Stats CoreStats

	// OnRemote is consulted when a remote op issues. RemoteBlock keeps
	// the thread resident (default); RemoteHandled leaves handling to the
	// controller, which typically squashes younger work and morphs.
	OnRemote func(tid int, in isa.Instr, completeAt uint64) RemoteAction
	// OnRequestEnd fires when an EndOfRequest instruction commits.
	OnRequestEnd func(tid int, now uint64)

	// Telemetry, when non-nil, receives stall and cache-miss events.
	// Every emission site is guarded by a nil check, so uninstrumented
	// runs pay one predictable branch.
	Telemetry telemetry.Sink
	// TelemetrySrc tags emitted events with the owning component.
	TelemetrySrc uint8
}

// NewOoOCore builds an out-of-order core running the given streams as SMT
// threads (len(streams) == 1 gives the single-threaded Baseline).
func NewOoOCore(cfg PipelineConfig, streams []isa.Stream, iport, dport *memsys.Port, pred *bpred.Unit) (*OoOCore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(streams) == 0 {
		return nil, fmt.Errorf("cpu: OoO core needs at least one thread")
	}
	if err := iport.Validate(); err != nil {
		return nil, err
	}
	if err := dport.Validate(); err != nil {
		return nil, err
	}
	c := &OoOCore{cfg: cfg, iport: iport, dport: dport, pred: pred}
	// Partition the ROB among threads. SMT+ gives the priority thread the
	// complement of the co-runner cap.
	n := len(streams)
	for i, s := range streams {
		share := cfg.ROBEntries / n
		if cfg.PriorityThread >= 0 && n > 1 {
			if i == cfg.PriorityThread {
				share = int(float64(cfg.ROBEntries) * (1 - cfg.StorageCapFrac))
			} else {
				share = int(float64(cfg.ROBEntries) * cfg.StorageCapFrac / float64(n-1))
			}
		}
		if share < 4 {
			share = 4
		}
		c.threads = append(c.threads, &oooThread{
			stream:        s,
			rob:           make([]robEntry, share),
			fetchBuf:      make([]isa.Instr, 0, cfg.FetchBufEntries),
			lastLine:      ^uint64(0),
			minCompleteAt: NoEvent,
		})
	}
	c.orderBuf = make([]int, 0, len(c.threads))
	return c, nil
}

// Config returns the core's configuration.
func (c *OoOCore) Config() PipelineConfig { return c.cfg }

// Threads returns the number of hardware threads.
func (c *OoOCore) Threads() int { return len(c.threads) }

// ThreadStats returns thread t's statistics.
func (c *OoOCore) ThreadStats(t int) *ThreadStats { return &c.threads[t].Stats }

// storage caps for shared structures (IQ/LQ/SQ) under SMT+.
func (c *OoOCore) capFor(tid, capacity int) int {
	if c.cfg.PriorityThread < 0 || len(c.threads) == 1 {
		return capacity
	}
	if tid == c.cfg.PriorityThread {
		return capacity
	}
	cap30 := int(float64(capacity) * c.cfg.StorageCapFrac)
	if cap30 < 1 {
		cap30 = 1
	}
	return cap30
}

func (c *OoOCore) sharedIQ() int {
	n := 0
	for _, t := range c.threads {
		n += t.iqCount
	}
	return n
}

func (c *OoOCore) sharedLQ() int {
	n := 0
	for _, t := range c.threads {
		n += t.lqCount
	}
	return n
}

func (c *OoOCore) sharedSQ() int {
	n := 0
	for _, t := range c.threads {
		n += t.sqCount
	}
	return n
}

func (c *OoOCore) sharedPhys() int {
	n := 0
	for _, t := range c.threads {
		n += t.physCount
	}
	return n
}

// Step simulates one cycle at global time now.
func (c *OoOCore) Step(now uint64) {
	c.Stats.Cycles++
	c.commit(now)
	c.complete(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)
}

// commit retires up to Width done instructions, round-robin over threads,
// in order within each thread.
func (c *OoOCore) commit(now uint64) {
	budget := c.cfg.Width
	n := len(c.threads)
	tid := c.rrPtr
	for k := 0; k < n && budget > 0; k, tid = k+1, wrapInc(tid, n) {
		t := c.threads[tid]
		for budget > 0 && t.size > 0 {
			e := t.robAt(0)
			if e.state != robDone || e.completeAt > now {
				break
			}
			c.refund(t, e)
			t.head = wrapInc(t.head, len(t.rob))
			t.size--
			t.Stats.Retired++
			c.Stats.TotalRetired++
			budget--
			if e.in.EndOfRequest {
				t.Stats.RequestsCompleted++
				if c.OnRequestEnd != nil {
					c.OnRequestEnd(tid, now)
				}
			}
		}
	}
}

func (c *OoOCore) refund(t *oooThread, e *robEntry) {
	if e.hasPhys {
		t.physCount--
		e.hasPhys = false
	}
	if e.inLQ {
		t.lqCount--
		e.inLQ = false
	}
	if e.inSQ {
		t.sqCount--
		e.inSQ = false
	}
	if e.state == robWaiting {
		t.iqCount--
	}
}

// complete marks issued instructions whose latency elapsed as done and
// resumes fetch after mispredicted branches resolve. The per-thread
// minCompleteAt bound skips the ROB scan on cycles where no issued entry
// can cross its completion time (the scan is exact, so gating it on the
// bound changes nothing observable).
func (c *OoOCore) complete(now uint64) {
	for _, t := range c.threads {
		if t.minCompleteAt > now {
			continue
		}
		next := uint64(NoEvent)
		for i := 0; i < t.size; i++ {
			e := t.robAt(i)
			if e.state != robIssued {
				continue
			}
			if e.completeAt <= now {
				e.state = robDone
				t.noReady = false // a finished producer may wake waiters
				if e.mispredicted && t.fetchBlocked {
					t.fetchBlocked = false
					t.fetchResumeAt = now + uint64(c.cfg.MispredictPenalty)
				}
			} else if e.completeAt < next {
				next = e.completeAt
			}
		}
		t.minCompleteAt = next
	}
}

// ready reports whether entry e's sources are produced.
func (c *OoOCore) ready(t *oooThread, e *robEntry) bool {
	for _, p := range e.prod {
		if !p.valid {
			continue
		}
		pe := &t.rob[p.pos]
		if pe.seq == p.seq && pe.state != robDone {
			return false
		}
	}
	return true
}

// issue selects up to Width ready waiting instructions, oldest first, with
// per-FU structural limits. SMT+ issues the priority thread's ready
// instructions first.
func (c *OoOCore) issue(now uint64) {
	total := c.cfg.Width
	ldst, fp, mul, ialu := c.cfg.LdStPorts, c.cfg.FPUs, c.cfg.Muls, c.cfg.IntALUs

	order := c.orderBuf[:0]
	if c.cfg.PriorityThread >= 0 && c.cfg.PriorityThread < len(c.threads) {
		order = append(order, c.cfg.PriorityThread)
		for i := range c.threads {
			if i != c.cfg.PriorityThread {
				order = append(order, i)
			}
		}
	} else {
		tid := c.rrPtr
		c.rrPtr = wrapInc(c.rrPtr, len(c.threads))
		for range c.threads {
			order = append(order, tid)
			tid = wrapInc(tid, len(c.threads))
		}
	}

	for _, tid := range order {
		t := c.threads[tid]
		if total == 0 {
			break
		}
		if t.iqCount == 0 {
			continue // no waiting entries: the scan below would find nothing
		}
		if t.noReady {
			continue // memoized: no waiting entry is ready (oooThread.noReady)
		}
		anyReady := false
		fullScan := true
		for i := 0; i < t.size; i++ {
			if total == 0 {
				fullScan = false
				break
			}
			e := t.robAt(i)
			if e.state != robWaiting || !c.ready(t, e) {
				continue
			}
			anyReady = true
			switch e.in.Op {
			case isa.OpLoad, isa.OpStore, isa.OpRemote:
				if ldst == 0 {
					continue
				}
			case isa.OpPark:
				// Parking needs no functional unit.
			case isa.OpFPAlu:
				if fp == 0 {
					continue
				}
			case isa.OpIntMul:
				if mul == 0 {
					continue
				}
			default:
				if ialu == 0 {
					continue
				}
			}
			// Issue.
			e.state = robIssued
			t.iqCount--
			total--
			c.Stats.IssueSlotsUsed++
			switch e.in.Op {
			case isa.OpLoad:
				ldst--
				lat := uint64(c.dport.Access(now, e.in.Addr, false))
				e.completeAt = now + lat
				if c.Telemetry != nil && lat >= memsys.LLCHitLat {
					c.Telemetry.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvCacheMiss,
						Src: c.TelemetrySrc, A: lat, B: uint64(tid)})
				}
			case isa.OpStore:
				ldst--
				c.dport.Access(now, e.in.Addr, true)
				e.completeAt = now + LatStore
			case isa.OpRemote:
				ldst--
				t.Stats.Remotes++
				completeAt := now + CyclesFromNs(e.in.RemoteNs, c.cfg.FreqGHz)
				e.completeAt = completeAt
				if c.Telemetry != nil {
					c.Telemetry.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvMasterStall,
						Src: c.TelemetrySrc, A: completeAt - now, B: uint64(tid)})
				}
				action := RemoteBlock
				if c.OnRemote != nil {
					action = c.OnRemote(tid, e.in, completeAt)
				}
				if action == RemoteBlock {
					// Engine-managed remote: the thread stays resident,
					// blocked on the device for the full latency.
					t.Stats.RemoteStallCycles += completeAt - now
				}
			case isa.OpPark:
				// Wait in place until the poll interval elapses.
				e.completeAt = now + CyclesFromNs(e.in.RemoteNs, c.cfg.FreqGHz)
			case isa.OpFPAlu:
				fp--
				e.completeAt = now + LatFPAlu
			case isa.OpIntMul:
				mul--
				e.completeAt = now + LatIntMul
			case isa.OpBranch:
				ialu--
				e.completeAt = now + LatBranch
			default:
				ialu--
				e.completeAt = now + LatIntAlu
			}
			if e.completeAt < t.minCompleteAt {
				t.minCompleteAt = e.completeAt
			}
		}
		if fullScan && !anyReady {
			// The whole window was examined and nothing is ready (entries
			// blocked only by structural hazards count as ready and keep
			// the memo unset): skip further scans until an invalidation.
			t.noReady = true
		}
	}
}

// dispatch renames and inserts fetched instructions into the ROB/IQ.
func (c *OoOCore) dispatch(now uint64) {
	budget := c.cfg.Width
	n := len(c.threads)
	tid := c.rrPtr
	for k := 0; k < n && budget > 0; k, tid = k+1, wrapInc(tid, n) {
		t := c.threads[tid]
		for budget > 0 && t.fetchLen() > 0 {
			in := t.fetchBuf[t.fetchHead]
			if t.size == len(t.rob) {
				break // per-thread ROB full
			}
			if c.sharedIQ() >= c.cfg.IQEntries || t.iqCount >= c.capFor(tid, c.cfg.IQEntries) {
				break
			}
			needPhys := in.Dst != isa.RegNone
			if needPhys && c.sharedPhys() >= c.cfg.PhysRegs {
				break
			}
			if in.Op == isa.OpLoad || in.Op == isa.OpRemote {
				if c.sharedLQ() >= c.cfg.LQEntries || t.lqCount >= c.capFor(tid, c.cfg.LQEntries) {
					break
				}
			}
			if in.Op == isa.OpStore {
				if c.sharedSQ() >= c.cfg.SQEntries || t.sqCount >= c.capFor(tid, c.cfg.SQEntries) {
					break
				}
			}
			t.popFetch()
			pos := t.ringPos(t.size)
			t.nextSeq++
			e := &t.rob[pos]
			*e = robEntry{seq: t.nextSeq, in: in, state: robWaiting}
			if t.pendingMispredict && t.fetchLen() == 0 {
				e.mispredicted = true
				t.pendingMispredict = false
			}
			// Record producer links before updating the rename map.
			if in.Src1 != isa.RegNone {
				e.prod[0] = t.regProducer[in.Src1]
			}
			if in.Src2 != isa.RegNone {
				e.prod[1] = t.regProducer[in.Src2]
			}
			if needPhys {
				e.hasPhys = true
				t.physCount++
				t.regProducer[in.Dst] = prodLink{valid: true, pos: pos, seq: e.seq}
			}
			if in.Op == isa.OpLoad || in.Op == isa.OpRemote {
				e.inLQ = true
				t.lqCount++
			}
			if in.Op == isa.OpStore {
				e.inSQ = true
				t.sqCount++
			}
			t.iqCount++
			t.size++
			t.noReady = false // the new entry may have no live producers
			budget--
		}
	}
}

// fetch brings instructions into the fetch buffer of the thread selected
// by ICOUNT (priority thread first for SMT+).
func (c *OoOCore) fetch(now uint64) {
	// Select thread order.
	order := c.orderBuf[:0]
	switch {
	case c.cfg.PriorityThread >= 0 && c.cfg.PriorityThread < len(c.threads):
		order = append(order, c.cfg.PriorityThread)
		for i := range c.threads {
			if i != c.cfg.PriorityThread {
				order = append(order, i)
			}
		}
	default:
		// ICOUNT: ascending in-flight count.
		for i := range c.threads {
			order = append(order, i)
		}
		for a := 1; a < len(order); a++ {
			for b := a; b > 0 && c.threads[order[b]].inflight() < c.threads[order[b-1]].inflight(); b-- {
				order[b], order[b-1] = order[b-1], order[b]
			}
		}
	}

	budget := c.cfg.Width
	fetchedAny := false
	for _, tid := range order {
		t := c.threads[tid]
		if budget == 0 {
			break
		}
		if t.fetchHalted || t.fetchBlocked || t.fetchResumeAt > now {
			continue
		}
		for budget > 0 && t.fetchLen() < c.cfg.FetchBufEntries {
			var in isa.Instr
			var ok bool
			if t.replayLen() > 0 {
				in, ok = t.replay[t.replayHead], true
				t.replayHead++
				if t.replayHead == len(t.replay) {
					t.replay = t.replay[:0]
					t.replayHead = 0
				}
			} else {
				in, ok = t.stream.Next(now)
			}
			if !ok {
				if t.inflight() == 0 {
					t.Stats.IdleCycles++
				}
				break
			}
			line := in.PC >> 6
			if line != t.lastLine {
				t.lastLine = line
				ilat := uint64(c.iport.Access(now, in.PC, false))
				if ilat > uint64(c.iport.L1.HitLatency()) {
					t.fetchResumeAt = now + ilat
				}
			}
			t.pushFetch(in)
			budget--
			fetchedAny = true
			if in.Op == isa.OpBranch {
				if c.pred.PredictAndTrain(in) {
					// Stall fetch until this branch resolves (plus the
					// redirect penalty applied in complete()).
					t.fetchBlocked = true
					t.pendingMispredict = true
					break
				}
				if in.Taken {
					break // taken-branch fetch break
				}
			}
			if t.fetchResumeAt > now {
				break
			}
		}
	}
	if !fetchedAny {
		c.Stats.FetchStallCycles++
	}
}
