package cache

import "fmt"

// PageBytes is the simulated page size (4KB x86 pages).
const PageBytes = 4096

// invalidVPN marks an empty TLB entry. Page numbers are addresses over
// PageBytes, so no real VPN reaches it.
const invalidVPN = ^uint64(0)

// TLB is a fully-associative, LRU translation lookaside buffer.
// Table I provisions 64-entry I/D TLBs; Duplexity replicates a full-size
// TLB for the filler-thread mode so fillers never disturb master-thread
// translations.
type TLB struct {
	// Entry i holds vpns[i] (invalidVPN when empty), last used at clock
	// lrus[i]. Empty entries carry stamp 0, below every valid stamp, so
	// the first minimum stamp is the first empty entry if there is one
	// and the least recently used entry otherwise.
	vpns  []uint64
	lrus  []uint64
	clock uint64
	// hint maps a VPN's low bits to the entry that last held a VPN with
	// those bits, so most hits skip the associative scan. A hint is
	// checked against vpns before use; a stale one only costs the scan.
	hint     []int32
	hintMask uint64

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with n entries.
func NewTLB(n int) *TLB {
	if n <= 0 {
		panic(fmt.Sprintf("cache: TLB size %d must be positive", n))
	}
	h := 1
	for h < 2*n {
		h <<= 1
	}
	t := &TLB{vpns: make([]uint64, n), lrus: make([]uint64, n),
		hint: make([]int32, h), hintMask: uint64(h - 1)}
	t.Flush()
	return t
}

// Lookup translates addr, filling on miss, and reports whether it hit.
func (t *TLB) Lookup(addr uint64) bool {
	vpn := addr / PageBytes
	t.clock++
	t.Accesses++
	h := &t.hint[vpn&t.hintMask]
	if i := *h; t.vpns[i] == vpn {
		t.lrus[i] = t.clock
		return true
	}
	for i, v := range t.vpns {
		if v == vpn {
			t.lrus[i] = t.clock
			*h = int32(i)
			return true
		}
	}
	// Miss: replace the first empty entry, else the least recently used.
	victim := 0
	for i, l := range t.lrus {
		if l < t.lrus[victim] {
			victim = i
		}
	}
	t.Misses++
	t.vpns[victim] = vpn
	t.lrus[victim] = t.clock
	*h = int32(victim)
	return false
}

// Flush invalidates all translations (context switch without ASIDs).
func (t *TLB) Flush() {
	for i := range t.vpns {
		t.vpns[i] = invalidVPN
		t.lrus[i] = 0
	}
}

// MissRate returns misses per access.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}

// Size returns the number of entries.
func (t *TLB) Size() int { return len(t.vpns) }

// StorageBits returns TLB state size for the area model (VPN ~36 bits,
// PPN ~36 bits, flags).
func (t *TLB) StorageBits() int { return len(t.vpns) * 76 }
