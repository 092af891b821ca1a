// Package isa defines the dynamic instruction model consumed by the
// cycle-level pipeline simulators, plus a configurable synthetic
// instruction-stream generator framework.
//
// The repository has no access to x86 binaries or a gem5-class functional
// front-end, so workloads are represented as dynamic instruction streams
// with realistic op mixes, register dependence distances, branch behaviour
// (exercising the real simulated predictors), memory footprints
// (exercising the real simulated caches and TLBs), and explicit
// microsecond-scale remote operations (the paper's "demarcated stalls").
package isa

import "fmt"

// OpClass classifies a dynamic instruction for the timing model.
type OpClass uint8

// Operation classes. OpRemote models a demarcated µs-scale operation
// (RDMA read, Optane access, leaf fan-out) per Section IV of the paper:
// hardware recognizes the start and end of such stalls.
const (
	OpNop OpClass = iota
	OpIntAlu
	OpIntMul
	OpFPAlu
	OpLoad
	OpStore
	OpBranch
	OpRemote
	// OpPark is an mwait/hlt-style wait: the thread blocks for RemoteNs
	// (a wake-up poll interval) without issuing network traffic. BSP
	// barrier waits park instead of spinning, matching Section IV's
	// "unused virtual contexts are parked via HLT".
	OpPark
	numOpClasses
)

// String implements fmt.Stringer.
func (o OpClass) String() string {
	switch o {
	case OpNop:
		return "nop"
	case OpIntAlu:
		return "int"
	case OpIntMul:
		return "mul"
	case OpFPAlu:
		return "fp"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	case OpRemote:
		return "remote"
	case OpPark:
		return "park"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// RegID names an architectural register. Register 0 is the "none"
// register (no source/destination). The x86-64 state the paper assumes is
// 16 64-bit GP registers plus 16 128-bit XMM registers; we model 32
// uniform architectural registers per thread.
type RegID uint8

// RegNone marks an absent operand.
const RegNone RegID = 0

// NumArchRegs is the number of architectural registers per thread
// (16 GP + 16 XMM, flattened).
const NumArchRegs = 33 // index 0 unused

// Instr is one dynamic instruction. Fields are ordered widest first so
// the struct packs into 40 bytes: pipelines copy an Instr on every
// fetch, buffer push and issue.
type Instr struct {
	// PC is the (synthetic) program counter, used by branch predictors,
	// the BTB, and the instruction cache.
	PC uint64
	// Addr is the effective address for OpLoad/OpStore.
	Addr uint64
	// Target is the actual next PC for a taken branch.
	Target uint64
	// RemoteNs is the device latency of an OpRemote in nanoseconds.
	RemoteNs float64
	// Op classifies the instruction.
	Op OpClass
	// Dst is the destination register (RegNone if none).
	Dst RegID
	// Src1 and Src2 are source registers (RegNone if absent).
	Src1, Src2 RegID
	// Taken is the actual branch outcome for OpBranch.
	Taken bool
	// IsCall and IsReturn mark call/return branches for the RAS.
	IsCall, IsReturn bool
	// EndOfRequest marks the last instruction of a service request;
	// used for request-latency accounting on latency-critical threads.
	EndOfRequest bool
}

// Stream produces the dynamic instruction stream of one hardware thread.
//
// Next returns ok=false when the thread currently has no work (an idle
// latency-critical thread waiting for a request); the caller should
// advance simulated time and retry. Batch streams never go idle.
type Stream interface {
	Next(nowCycle uint64) (Instr, bool)
}

// NoEvent is the NextWorkAt sentinel for "never": the stream has no
// scheduled future work.
const NoEvent = ^uint64(0)

// Eventer is implemented by streams that can report, WITHOUT consuming
// input or mutating any state, the earliest cycle >= now at which Next
// may return an instruction. Implementations must be pure: the
// discrete-event engine calls NextWorkAt on cycles where the
// cycle-by-cycle path would not have called Next at all, so any side
// effect (consuming RNG draws, emitting telemetry, admitting arrivals)
// would break the bit-identical-results invariant.
//
// A return value w <= now means "work may be available right now";
// w > now promises Next would return ok=false on every cycle in
// [now, w); NoEvent means the stream will never produce work again.
// Streams that cannot promise anything simply do not implement the
// interface — callers must then assume work can appear on any cycle.
type Eventer interface {
	NextWorkAt(now uint64) uint64
}

// Fixed is a Stream that replays a fixed slice of instructions, cyclically
// if Loop is set. It supports the trace-based simulation mode the paper
// uses for multi-threaded throughput workloads.
type Fixed struct {
	Instrs []Instr
	Loop   bool
	pos    int
}

// NextWorkAt implements Eventer: a fixed trace has work immediately or
// never again.
func (f *Fixed) NextWorkAt(now uint64) uint64 {
	if len(f.Instrs) == 0 {
		return NoEvent
	}
	if f.pos >= len(f.Instrs) && !f.Loop {
		return NoEvent
	}
	return now
}

// Next implements Stream.
func (f *Fixed) Next(uint64) (Instr, bool) {
	if len(f.Instrs) == 0 {
		return Instr{}, false
	}
	if f.pos >= len(f.Instrs) {
		if !f.Loop {
			return Instr{}, false
		}
		f.pos = 0
	}
	in := f.Instrs[f.pos]
	f.pos++
	return in, true
}

// Record drains up to n instructions from s (at cycle 0) into a slice,
// for later replay with Fixed. Idle streams terminate recording early.
func Record(s Stream, n int) []Instr {
	out := make([]Instr, 0, n)
	for i := 0; i < n; i++ {
		in, ok := s.Next(0)
		if !ok {
			break
		}
		out = append(out, in)
	}
	return out
}
