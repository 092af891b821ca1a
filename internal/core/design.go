// Package core implements the paper's primary contribution: the
// master-core (a morphable core that runs a single latency-critical
// master-thread out-of-order and fills its µs-scale stall/idle holes with
// in-order filler-threads), the master/lender dyad with segregated filler
// state, and the seven server design points evaluated in Section V.
package core

import "fmt"

// ModelVersion fingerprints the simulator's semantics for the
// experiment-campaign result cache (internal/campaign): any change that
// can alter a simulated result — core timing, workload generation,
// power model, seed derivation — must bump this string so every cached
// cell is invalidated. Flag/CLI changes that do not affect results must
// NOT bump it, or warm caches are thrown away for nothing.
const ModelVersion = "hpca19-duplexity-v1"

// Design enumerates the evaluated design points (Section V).
type Design int

// The seven design configurations compared in the paper.
const (
	// DesignBaseline is a 4-wide OoO core running only the microservice.
	DesignBaseline Design = iota
	// DesignSMT adds a second SMT batch thread with ICOUNT fetch.
	DesignSMT
	// DesignSMTPlus prioritizes the microservice thread and caps the
	// co-runner at 30% of storage resources.
	DesignSMTPlus
	// DesignMorphCore morphs to 8 fixed filler-threads when the
	// master-thread stalls or idles; fillers share all master state.
	DesignMorphCore
	// DesignMorphCorePlus extends MorphCore with HSMT and a lender-core
	// pairing (borrows from a shared virtual-context pool) but still
	// shares the master's caches, TLBs, and predictor with fillers.
	DesignMorphCorePlus
	// DesignDuplexityRepl is Duplexity with all stateful structures,
	// including L1 caches, replicated for fillers.
	DesignDuplexityRepl
	// DesignDuplexity is the final design: fillers use dedicated TLBs, a
	// reduced predictor, and L0 caches backed by the lender-core's L1s.
	DesignDuplexity
)

// AllDesigns lists every design point in evaluation order.
var AllDesigns = []Design{
	DesignBaseline, DesignSMT, DesignSMTPlus,
	DesignMorphCore, DesignMorphCorePlus,
	DesignDuplexityRepl, DesignDuplexity,
}

// String implements fmt.Stringer.
func (d Design) String() string {
	switch d {
	case DesignBaseline:
		return "Baseline"
	case DesignSMT:
		return "SMT"
	case DesignSMTPlus:
		return "SMT+"
	case DesignMorphCore:
		return "MorphCore"
	case DesignMorphCorePlus:
		return "MorphCore+"
	case DesignDuplexityRepl:
		return "Duplexity+repl"
	case DesignDuplexity:
		return "Duplexity"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// LenderFreqGHz is the lender-core's clock from Table II. The simple
// in-order lender closes timing at the same frequency as the baseline
// OoO core; Table II (internal/power) and the simulator share this
// constant so the table cannot drift from the simulated clock.
const LenderFreqGHz = 3.4

// FreqGHz returns the design's clock frequency from Table II.
func (d Design) FreqGHz() float64 {
	switch d {
	case DesignBaseline:
		return LenderFreqGHz
	case DesignSMT, DesignSMTPlus:
		return 3.35
	case DesignMorphCore:
		return 3.3
	default: // master-core based designs
		return 3.25
	}
}

// Morphs reports whether the design switches into a filler-thread mode.
func (d Design) Morphs() bool { return d >= DesignMorphCore }

// Timing constants for mode transitions (Sections III-B1 and III-B4).
const (
	// MorphInLat is the latency to reconfigure the datapath into
	// in-order SMT mode after the drain completes.
	MorphInLat = 20
	// DuplexityRestartLat is the master-thread restart latency: pending
	// filler instructions are flushed and filler register state spills
	// through the L0 in under 50 cycles.
	DuplexityRestartLat = 50
	// MorphCoreRestartLat is MorphCore's slower restart: filler
	// architectural registers are evacuated to a dedicated memory region
	// by microcode (8 threads x 32 registers at ~1 per cycle).
	MorphCoreRestartLat = 300
)

// RestartLat returns the master-thread restart latency for the design.
func (d Design) RestartLat() uint64 {
	switch d {
	case DesignMorphCore, DesignMorphCorePlus:
		return MorphCoreRestartLat
	case DesignDuplexity, DesignDuplexityRepl:
		return DuplexityRestartLat
	default:
		return 0
	}
}
