package core

import (
	"fmt"

	"duplexity/internal/bpred"
	"duplexity/internal/cache"
	"duplexity/internal/cpu"
	"duplexity/internal/hsmt"
	"duplexity/internal/isa"
	"duplexity/internal/memsys"
	"duplexity/internal/stats"
	"duplexity/internal/telemetry"
)

// RequestTracker is implemented by request-driven master streams that
// track per-request arrival times, letting the dyad compute end-to-end
// request latencies (arrival to commit of the request's last instruction).
type RequestTracker interface {
	// PopCompleted returns the arrival cycle of the oldest in-service
	// request and removes it from the tracker.
	PopCompleted() (arrivalCycle uint64, ok bool)
}

// Config assembles one dyad (or a non-morphing design point paired with a
// throughput lender-core, per Section V's methodology).
type Config struct {
	// Design selects the design point.
	Design Design
	// MasterStream is the latency-critical microservice thread. It may
	// implement cpu.WorkSignaler (for idle detection) and RequestTracker
	// (for latency accounting).
	MasterStream isa.Stream
	// BatchStreams are the latency-insensitive threads. SMT designs
	// take the first as the co-runner; MorphCore takes the first eight as
	// fixed filler-threads; the remainder populate the lender-core's
	// virtual-context pool (Section IV: 32 per dyad).
	BatchStreams []isa.Stream
	// FreqGHz overrides the design's Table II clock (0 = default).
	FreqGHz float64
	// NoL0 removes Duplexity's L0 filter caches (ablation): fillers then
	// access the lender's L1s directly on every reference.
	NoL0 bool
	// Shared, if non-nil, is an externally owned LLC + memory (a Chip
	// places several dyads on one shared LLC). When nil the dyad builds
	// its own private 2MB slice.
	Shared *memsys.Shared
}

// Dyad is one simulated master/lender pair sharing an LLC slice, a
// virtual-context pool, and (for Duplexity) the lender's L1 caches.
//
// A Dyad is confined to a single goroutine: nothing in this package (or
// in the cpu, isa, workload, or stats packages it composes) holds
// package-level mutable state — every RNG, cache, and telemetry sink
// hangs off the Dyad or the streams passed into it — so the campaign
// engine (internal/campaign) may run one Dyad per worker goroutine
// concurrently without synchronization.
type Dyad struct {
	Design Design
	Freq   float64

	// Master is non-nil for morphing designs.
	Master *MasterCore
	// MasterOoO is the latency-critical engine for every design.
	MasterOoO *cpu.OoOCore
	// MasterPred is the master engine's branch prediction unit.
	MasterPred *bpred.Unit
	// MasterMem is the master-core's private cache/TLB state.
	MasterMem *memsys.CoreMem

	// Lender is the paired throughput core's scheduler.
	Lender *hsmt.Scheduler
	// LenderCore is the lender datapath.
	LenderCore *cpu.InOCore
	// LenderMem is the lender's private cache/TLB state.
	LenderMem *memsys.CoreMem
	// Pool is the virtual-context run queue.
	Pool *hsmt.Pool

	// Shared is the dyad's LLC + memory.
	Shared *memsys.Shared

	// Latencies records end-to-end request latencies in cycles when the
	// master stream implements RequestTracker.
	Latencies *stats.LatencyRecorder

	// Exec selects how Run and RunUntilRequests advance time. The zero
	// value is ExecEvent: a discrete-event engine in which each side of
	// the dyad registers its next wake cycle in a priority queue and the
	// clock jumps from event to event, never ticking an idle cycle.
	// ExecStepped forces cycle-by-cycle stepping. Results are
	// bit-identical in both modes (see DESIGN.md §13); the knob exists
	// for the equivalence tests and for debugging.
	Exec ExecMode
	// SkippedCycles counts cycles advanced by jumps rather than steps.
	// It is a diagnostic for the skip ratio only — deliberately not part
	// of CollectInto or any printed table, so outputs and campaign cache
	// keys are unaffected by how time advanced.
	SkippedCycles uint64

	tracker      RequestTracker
	masterStream isa.Stream
	now          uint64

	// engine is the lazily built discrete-event engine for ExecEvent
	// runs.
	engine *eventEngine

	// telemetry is the attached event sink (nil until EnableTelemetry);
	// completedSeq numbers RequestComplete events, aligning with the
	// master stream's FIFO arrival/dispatch sequence.
	telemetry    telemetry.Sink
	completedSeq uint64
}

// NewDyad wires up a design point per Section V.
func NewDyad(cfg Config) (*Dyad, error) {
	if cfg.MasterStream == nil {
		return nil, fmt.Errorf("core: master stream required")
	}
	freq := cfg.FreqGHz
	if freq == 0 {
		freq = cfg.Design.FreqGHz()
	}

	d := &Dyad{
		Design:       cfg.Design,
		Freq:         freq,
		Latencies:    stats.NewLatencyRecorder(1 << 12),
		masterStream: cfg.MasterStream,
	}

	// Shared LLC: 1MB per core x 2 cores in the dyad (Table I), unless
	// the caller supplies a chip-level LLC.
	if cfg.Shared != nil {
		d.Shared = cfg.Shared
	} else {
		d.Shared = &memsys.Shared{
			LLC: cache.MustNew(cache.Config{
				Name: "dyad.LLC", SizeBytes: 2 << 20, LineBytes: 64,
				Ways: 8, HitLatency: memsys.LLCHitLat,
			}),
			MemLat: memsys.MemLatCycles(freq),
		}
	}

	// Split batch streams per design.
	batch := cfg.BatchStreams
	var coRunner isa.Stream
	var fixedFillers []isa.Stream
	switch cfg.Design {
	case DesignSMT, DesignSMTPlus:
		if len(batch) == 0 {
			return nil, fmt.Errorf("core: %v needs at least one batch stream for the co-runner", cfg.Design)
		}
		coRunner, batch = batch[0], batch[1:]
	case DesignMorphCore:
		if len(batch) < 8 {
			return nil, fmt.Errorf("core: MorphCore needs at least 8 batch streams, got %d", len(batch))
		}
		fixedFillers, batch = batch[:8], batch[8:]
	}

	// Lender-core (all designs pair with one for fair throughput).
	lenderCfg := cpu.TableIConfig()
	lenderCfg.FreqGHz = freq
	d.LenderMem = memsys.NewTableICoreMem("lender")
	li, ld := memsys.LocalPorts(d.LenderMem, d.Shared, cache.OwnerFiller)
	lenderPred := bpred.NewLenderUnit()
	lenderCore, err := cpu.NewInOCore(lenderCfg, 8, li, ld, lenderPred)
	if err != nil {
		return nil, err
	}
	d.LenderCore = lenderCore
	d.Pool = hsmt.NewPool()
	for i, s := range batch {
		d.Pool.Add(&hsmt.VirtualContext{ID: i, Stream: s})
	}
	d.Lender, err = hsmt.NewScheduler(lenderCore, d.Pool, hsmt.DefaultSwapLat, hsmt.QuantumCycles(freq))
	if err != nil {
		return nil, err
	}

	// Master-side engine.
	masterCfg := cpu.TableIConfig()
	masterCfg.FreqGHz = freq
	d.MasterMem = memsys.NewTableICoreMem("master")
	mi, md := memsys.LocalPorts(d.MasterMem, d.Shared, cache.OwnerMaster)
	d.MasterPred = bpred.NewTableIUnit()

	masterStreams := []isa.Stream{cfg.MasterStream}
	switch cfg.Design {
	case DesignSMT:
		masterStreams = append(masterStreams, coRunner)
	case DesignSMTPlus:
		masterCfg = cpu.SMTPlusConfig()
		masterCfg.FreqGHz = freq
		masterStreams = append(masterStreams, coRunner)
	}
	d.MasterOoO, err = cpu.NewOoOCore(masterCfg, masterStreams, mi, md, d.MasterPred)
	if err != nil {
		return nil, err
	}

	// Filler engine for morphing designs.
	if cfg.Design.Morphs() {
		fillerCfg := cpu.TableIConfig()
		fillerCfg.FreqGHz = freq
		var fi, fd *memsys.Port
		fillerPred := d.MasterPred // MorphCore variants share the master's predictor
		switch cfg.Design {
		case DesignMorphCore, DesignMorphCorePlus:
			// Fillers share the master's L1s and TLBs: pollution is real.
			fi = &memsys.Port{Name: "morph.if", L1: d.MasterMem.L1I, TLB: d.MasterMem.ITLB,
				Shared: d.Shared, Owner: cache.OwnerFiller, NextLinePrefetch: true}
			fd = &memsys.Port{Name: "morph.d", L1: d.MasterMem.L1D, TLB: d.MasterMem.DTLB,
				Shared: d.Shared, Owner: cache.OwnerFiller, NextLinePrefetch: true}
		case DesignDuplexityRepl:
			// Full replication: fillers get their own 64KB L1s and TLBs.
			replMem := memsys.NewTableICoreMem("master.repl")
			fi, fd = memsys.LocalPorts(replMem, d.Shared, cache.OwnerFiller)
			fillerPred = bpred.NewLenderUnit()
		case DesignDuplexity:
			// Segregation: dedicated filler TLBs and reduced predictor;
			// L0 filter caches backed by the lender-core's L1s.
			l0 := memsys.NewL0Pair("master")
			fi, fd = memsys.DyadPorts(l0, d.LenderMem, d.Shared, cache.NewTLB(64), cache.NewTLB(64))
			if cfg.NoL0 {
				fi.L0, fd.L0 = nil, nil // ablation: no bandwidth filters
			}
			fillerPred = bpred.NewLenderUnit()
		}
		fillerCore, err := cpu.NewInOCore(fillerCfg, 8, fi, fd, fillerPred)
		if err != nil {
			return nil, err
		}
		var engine fillerEngine
		if cfg.Design == DesignMorphCore {
			engine = newFixedFiller(fillerCore, fixedFillers)
		} else {
			sched, err := hsmt.NewScheduler(fillerCore, d.Pool, hsmt.DefaultSwapLat, hsmt.QuantumCycles(freq))
			if err != nil {
				return nil, err
			}
			engine = hsmtFiller{sched}
		}
		signaler, _ := cfg.MasterStream.(cpu.WorkSignaler)
		d.Master = NewMasterCore(cfg.Design, d.MasterOoO, engine, signaler)
	}

	// Request latency accounting.
	if tr, ok := cfg.MasterStream.(RequestTracker); ok {
		d.tracker = tr
		d.MasterOoO.OnRequestEnd = func(tid int, now uint64) {
			if tid != 0 {
				return
			}
			if arrival, ok := d.tracker.PopCompleted(); ok {
				d.Latencies.Add(float64(now - arrival))
				if d.telemetry != nil {
					d.telemetry.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvRequestComplete,
						Src: telemetry.SrcMaster, A: d.completedSeq, B: now - arrival})
				}
				d.completedSeq++
			}
		}
	}
	return d, nil
}

// MustNewDyad is NewDyad that panics on configuration errors.
func MustNewDyad(cfg Config) *Dyad {
	d, err := NewDyad(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Now returns the current cycle.
func (d *Dyad) Now() uint64 { return d.now }

// Step advances the dyad one cycle (master side and lender side).
func (d *Dyad) Step() {
	if d.Master != nil {
		d.Master.Step(d.now)
	} else {
		d.MasterOoO.Step(d.now)
	}
	d.Lender.StepCore(d.now)
	d.now++
}

// eventEngineFor returns the dyad's lazily built discrete-event engine.
func (d *Dyad) eventEngineFor() *eventEngine {
	if d.engine == nil {
		d.engine = newDyadEngine(d)
	}
	return d.engine
}

// Run advances n cycles.
func (d *Dyad) Run(n uint64) {
	end := d.now + n
	switch d.Exec {
	case ExecStepped:
		for d.now < end {
			d.Step()
		}
	default:
		d.now = d.eventEngineFor().run(d.now, end, nil)
	}
}

// RunUntilRequests advances until the master-thread has completed at
// least n requests or maxCycles elapse; it returns the completed count.
func (d *Dyad) RunUntilRequests(n uint64, maxCycles uint64) uint64 {
	ts := d.MasterOoO.ThreadStats(0)
	switch d.Exec {
	case ExecStepped:
		for ts.RequestsCompleted < n && d.now < maxCycles {
			d.Step()
		}
	default:
		// The stop condition only changes on an executed cycle (a
		// request completes at a master commit), so the engine checks it
		// exactly as often as the stepped loop does.
		if ts.RequestsCompleted < n && d.now < maxCycles {
			d.now = d.eventEngineFor().run(d.now, maxCycles,
				func() bool { return ts.RequestsCompleted >= n })
		}
	}
	return ts.RequestsCompleted
}

// MasterUtilization returns the Fig 5(a) metric: instructions retired on
// the master-core (master-thread, SMT co-runner, and borrowed
// filler-threads — but not the lender-core) divided by peak retire slots.
func (d *Dyad) MasterUtilization() float64 {
	if d.now == 0 {
		return 0
	}
	retired := d.MasterOoO.Stats.TotalRetired
	if d.Master != nil {
		retired += d.Master.FillerCore().Stats.TotalRetired
	}
	return float64(retired) / float64(d.now*4)
}

// MasterThreadRetired returns instructions retired by the master-thread.
func (d *Dyad) MasterThreadRetired() uint64 {
	return d.MasterOoO.ThreadStats(0).Retired
}

// BatchRetired returns instructions retired by all batch threads: the
// lender-core, borrowed fillers on the master-core, and an SMT co-runner.
func (d *Dyad) BatchRetired() uint64 {
	n := d.LenderCore.Stats.TotalRetired
	if d.Master != nil {
		n += d.Master.FillerCore().Stats.TotalRetired
	}
	if d.MasterOoO.Threads() > 1 {
		n += d.MasterOoO.ThreadStats(1).Retired
	}
	return n
}

// RemoteOps returns the number of µs-scale remote operations issued by
// the whole dyad (the Fig 6 NIC-utilization numerator).
func (d *Dyad) RemoteOps() uint64 {
	n := uint64(0)
	for t := 0; t < d.MasterOoO.Threads(); t++ {
		n += d.MasterOoO.ThreadStats(t).Remotes
	}
	if d.Master != nil {
		fc := d.Master.FillerCore()
		for i := 0; i < fc.Slots(); i++ {
			n += fc.Slot(i).Stats.Remotes
		}
	}
	for i := 0; i < d.LenderCore.Slots(); i++ {
		n += d.LenderCore.Slot(i).Stats.Remotes
	}
	return n
}

// Seconds converts the elapsed cycles to seconds at the dyad's clock.
func (d *Dyad) Seconds() float64 { return float64(d.now) / (d.Freq * 1e9) }

// CyclesToUs converts a cycle count to microseconds at the dyad's clock.
func (d *Dyad) CyclesToUs(c float64) float64 { return c / (d.Freq * 1e3) }
