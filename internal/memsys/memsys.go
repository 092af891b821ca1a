// Package memsys composes cache/TLB structures into the memory paths the
// pipelines use: a core's local path (L1 → LLC → DRAM), and Duplexity's
// dyad path, in which filler-threads running on the master-core reach the
// *lender-core's* L1s through small write-through L0 filter caches with a
// ~3-cycle remote-hop penalty (Section III-B3).
package memsys

import (
	"fmt"

	"duplexity/internal/cache"
)

// Latencies in core cycles for the Table I memory system at ~3.4 GHz.
const (
	L0HitLat  = 1
	L1HitLat  = 3
	LLCHitLat = 30
	// MemLatNs is DRAM access latency from Table I.
	MemLatNs = 50.0
	// RemoteHopLat is the added latency for the master-core to reach the
	// lender-core's L1 caches across the dyad (Section III-B3: ~3 cycles).
	RemoteHopLat = 3
	// PageWalkLat approximates a TLB-miss page walk (a couple of
	// cache-resident PTE accesses).
	PageWalkLat = 40
)

// MemLatCycles converts the Table I DRAM latency to cycles at freqGHz.
func MemLatCycles(freqGHz float64) int {
	return int(MemLatNs * freqGHz)
}

// CoreMem bundles one core's private memory-side structures (Table I:
// 64KB 2-way private I/D L1s, 64-entry I/D TLBs).
type CoreMem struct {
	L1I, L1D   *cache.Cache
	ITLB, DTLB *cache.TLB
}

// NewTableICoreMem builds the Table I private-cache configuration.
func NewTableICoreMem(name string) *CoreMem {
	mk := func(kind string) *cache.Cache {
		return cache.MustNew(cache.Config{
			Name:       name + "." + kind,
			SizeBytes:  64 * 1024,
			LineBytes:  64,
			Ways:       2,
			HitLatency: L1HitLat,
		})
	}
	return &CoreMem{
		L1I:  mk("L1I"),
		L1D:  mk("L1D"),
		ITLB: cache.NewTLB(64),
		DTLB: cache.NewTLB(64),
	}
}

// L0Pair is the master-core's filler-mode filter caches (Section III-B3:
// 2KB L0 I-cache, 4KB write-through L0 D-cache).
type L0Pair struct {
	I, D *cache.Cache
}

// NewL0Pair builds the paper's L0 configuration.
func NewL0Pair(name string) *L0Pair {
	return &L0Pair{
		I: cache.MustNew(cache.Config{
			Name: name + ".L0I", SizeBytes: 2 * 1024, LineBytes: 64,
			Ways: 2, HitLatency: L0HitLat, WriteThrough: true,
		}),
		D: cache.MustNew(cache.Config{
			Name: name + ".L0D", SizeBytes: 4 * 1024, LineBytes: 64,
			Ways: 2, HitLatency: L0HitLat, WriteThrough: true,
		}),
	}
}

// Shared bundles the chip-level shared structures: the LLC slice
// (Table I: 1MB per core, 8-way) and DRAM latency.
type Shared struct {
	LLC    *cache.Cache
	MemLat int // cycles
}

// NewTableIShared builds the shared LLC + memory at the given frequency.
func NewTableIShared(name string, freqGHz float64) *Shared {
	return &Shared{
		LLC: cache.MustNew(cache.Config{
			Name: name + ".LLC", SizeBytes: 1 << 20, LineBytes: 64,
			Ways: 8, HitLatency: LLCHitLat,
		}),
		MemLat: MemLatCycles(freqGHz),
	}
}

// Port is the memory interface a pipeline uses for one access class
// (instruction fetch or data). Access returns the latency of a
// synchronous access through the configured levels.
//
// A Port is passive with respect to simulated time: it holds no
// per-cycle state and mutates (cache contents, prefetch trackers,
// missFreeAt) only inside Access calls made by a stepping core. The
// discrete-event engine (internal/core, engine.go) therefore needs no
// NextEvent from the memory system — a span with no core
// activity cannot change it, and missFreeAt comparisons against a
// later now yield exactly what cycle-by-cycle stepping would have.
type Port struct {
	Name string
	// L0 is an optional filter cache in front of L1 (filler mode only).
	L0 *cache.Cache
	// L1 is the first-level cache; may belong to a *different* core
	// (the lender) when ExtraL1Lat is non-zero.
	L1 *cache.Cache
	// TLB translates before cache access; nil disables translation.
	TLB *cache.TLB
	// Shared is the LLC + memory backing the port.
	Shared *Shared
	// Owner tags installed lines for pollution accounting.
	Owner cache.Owner
	// ExtraL1Lat is added to every access that goes past L0 (the dyad's
	// remote hop).
	ExtraL1Lat int
	// NextLinePrefetch enables a stream prefetcher: a small table of
	// trackers each holds the next line it expects its stream to touch;
	// an access matching the expectation installs the following line in
	// L1/LLC in the background and advances the tracker. Sequential
	// traversals (instruction fetch, memcpy, graph scans) therefore pay
	// only the first couple of misses per stream; random accesses get no
	// help. Sized for the 8-16 interleaved streams of an SMT core.
	NextLinePrefetch bool
	streams          [16]uint64
	streamPtr        int

	// MissInterval models L1 miss-handling bandwidth (MSHR/fill
	// constraints): the miss path accepts one miss every MissInterval
	// cycles; excess misses queue. Zero disables the model.
	MissInterval int
	missFreeAt   uint64
}

// DefaultMissInterval is the default L1 miss-path bandwidth: one miss
// accepted every 4 cycles (≈16B/cycle of fill bandwidth), shared by all
// threads using the port.
const DefaultMissInterval = 4

// Validate reports mis-wired ports.
func (p *Port) Validate() error {
	if p.L1 == nil || p.Shared == nil || p.Shared.LLC == nil {
		return fmt.Errorf("memsys: port %q missing L1 or shared level", p.Name)
	}
	return nil
}

// Access performs a synchronous access at cycle now and returns its
// latency in cycles.
func (p *Port) Access(now uint64, addr uint64, write bool) int {
	lat := 0
	if p.TLB != nil && !p.TLB.Lookup(addr) {
		lat += PageWalkLat
	}
	if p.L0 != nil {
		lat += p.L0.HitLatency()
		hit := p.L0.Access(addr, write, p.Owner)
		if write {
			// Write-through: the write always proceeds to L1 (the L0 is a
			// bandwidth filter for reads and a register-spill buffer).
			lat += p.ExtraL1Lat
			p.L1.Access(addr, true, p.Owner)
			return lat
		}
		if hit {
			return lat
		}
	}
	if p.NextLinePrefetch {
		p.prefetch(addr)
	}
	lat += p.ExtraL1Lat + p.L1.HitLatency()
	if p.L1.Access(addr, write, p.Owner) {
		return lat
	}
	// L1 miss: contend for the miss-handling path.
	if p.MissInterval > 0 {
		if p.missFreeAt > now {
			lat += int(p.missFreeAt - now)
			p.missFreeAt += uint64(p.MissInterval)
		} else {
			p.missFreeAt = now + uint64(p.MissInterval)
		}
	}
	lat += p.Shared.LLC.HitLatency()
	if p.Shared.LLC.Access(addr, write, p.Owner) {
		return lat
	}
	return lat + p.Shared.MemLat
}

// prefetch runs the stream trackers for an access to addr, installing the
// next line when the access extends a recognized stream. The first
// tracker (in index order) whose expected line is within one of the
// access decides: one line behind is a re-access within the current
// line, already tracked; the expected line or the one after it (taken
// branches hop over lines) confirms the stream. d = line - expected
// wraps, so d+1 <= 2 is that three-line window in one unsigned test.
func (p *Port) prefetch(addr uint64) {
	line := addr >> 6
	for i := range p.streams {
		d := line - p.streams[i]
		if d+1 > 2 {
			continue
		}
		if d+1 == 0 {
			return // one line behind: already tracked
		}
		// Stream confirmed: run two lines ahead (degree-2).
		p.streams[i] = line + 1
		for ahead := uint64(1); ahead <= 2; ahead++ {
			next := (line + ahead) << 6
			if !p.L1.Fill(next, p.Owner) {
				p.Shared.LLC.Access(next, false, p.Owner)
			}
		}
		return
	}
	// Unknown line: allocate a tracker expecting the following line.
	p.streams[p.streamPtr] = line + 1
	p.streamPtr++
	if p.streamPtr == len(p.streams) {
		p.streamPtr = 0
	}
}

// LocalPorts returns the I and D ports for a core accessing its own L1s.
// Both ports enable next-line prefetching (sequential fetch, streaming
// data), matching conventional L1 stream prefetchers.
func LocalPorts(cm *CoreMem, sh *Shared, owner cache.Owner) (iport, dport *Port) {
	iport = &Port{Name: "ifetch", L1: cm.L1I, TLB: cm.ITLB, Shared: sh, Owner: owner,
		NextLinePrefetch: true, MissInterval: DefaultMissInterval}
	dport = &Port{Name: "data", L1: cm.L1D, TLB: cm.DTLB, Shared: sh, Owner: owner,
		NextLinePrefetch: true, MissInterval: DefaultMissInterval}
	return iport, dport
}

// DyadPorts returns the I and D ports for filler-threads executing on the
// master-core but accessing the lender-core's L1s through L0 filter
// caches, with dedicated filler TLBs. It wires L1→L0 back-invalidation so
// the L0s stay inclusive with the lender's L1s (Section III-B3).
func DyadPorts(l0 *L0Pair, lender *CoreMem, sh *Shared, fillerITLB, fillerDTLB *cache.TLB) (iport, dport *Port) {
	lender.L1I.OnEvict = l0.I.Invalidate
	lender.L1D.OnEvict = l0.D.Invalidate
	iport = &Port{Name: "ifetch.remote", L0: l0.I, L1: lender.L1I, TLB: fillerITLB,
		Shared: sh, Owner: cache.OwnerFiller, ExtraL1Lat: RemoteHopLat,
		NextLinePrefetch: true, MissInterval: DefaultMissInterval}
	dport = &Port{Name: "data.remote", L0: l0.D, L1: lender.L1D, TLB: fillerDTLB,
		Shared: sh, Owner: cache.OwnerFiller, ExtraL1Lat: RemoteHopLat,
		NextLinePrefetch: true, MissInterval: DefaultMissInterval}
	return iport, dport
}
