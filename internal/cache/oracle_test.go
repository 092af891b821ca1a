package cache

import (
	"fmt"
	"testing"

	"duplexity/internal/stats"
)

// refCache is the previous Cache implementation (one slice per set, a
// separate Contains scan before a prefetch fill), kept as the oracle the
// flat-array Cache and Cache.Fill must match access for access.
type refCache struct {
	cfg      Config
	sets     [][]line
	setMask  uint64
	setBits  uint
	lineBits uint
	lruClock uint64
	OnEvict  func(lineAddr uint64)
	Stats    Stats
}

func newRefCache(cfg Config) *refCache {
	lines := cfg.SizeBytes / cfg.LineBytes
	nsets := lines / cfg.Ways
	c := &refCache{cfg: cfg, setMask: uint64(nsets - 1)}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	for m := c.setMask; m > 0; m >>= 1 {
		c.setBits++
	}
	c.sets = make([][]line, nsets)
	backing := make([]line, lines)
	for i := range c.sets {
		c.sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return c
}

func (c *refCache) index(addr uint64) (set uint64, tag uint64) {
	l := addr >> c.lineBits
	return l & c.setMask, l >> c.setBits
}

func (c *refCache) Access(addr uint64, write bool, owner Owner) (hit bool) {
	set, tag := c.index(addr)
	c.lruClock++
	c.Stats.Accesses[owner]++
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.lruClock
			if write && !c.cfg.WriteThrough {
				ways[i].dirty = true
			}
			return true
		}
	}
	c.Stats.Misses[owner]++
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			goto fill
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	if ways[victim].valid {
		c.Stats.Evictions++
		if ways[victim].owner != owner && ways[victim].owner != OwnerNone {
			c.Stats.CrossEvictions++
		}
		if ways[victim].dirty {
			c.Stats.Writebacks++
		}
		if c.OnEvict != nil {
			c.OnEvict(((ways[victim].tag << c.setBits) | set) << c.lineBits)
		}
	}
fill:
	ways[victim] = line{tag: tag, valid: true, owner: owner, lru: c.lruClock,
		dirty: write && !c.cfg.WriteThrough}
	return false
}

func (c *refCache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Invalidate(addr uint64) {
	set, tag := c.index(addr)
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].valid = false
			c.Stats.Invalidations++
			return
		}
	}
}

func (c *refCache) InvalidateAll() {
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid {
				c.sets[s][w].valid = false
				c.Stats.Invalidations++
			}
		}
	}
}

func (c *refCache) OccupancyBy(owner Owner) float64 {
	total, mine := 0, 0
	for s := range c.sets {
		for w := range c.sets[s] {
			total++
			if c.sets[s][w].valid && c.sets[s][w].owner == owner {
				mine++
			}
		}
	}
	return float64(mine) / float64(total)
}

// refTLB is the previous TLB implementation (array of {vpn, valid, lru}
// entries behind a one-entry micro-TLB), kept as the oracle for the
// split-array TLB with its direct-mapped hint.
type refTLB struct {
	entries  []refTLBEntry
	clock    uint64
	lastVPN  uint64
	lastIdx  int
	haveLast bool
	Accesses uint64
	Misses   uint64
}

type refTLBEntry struct {
	vpn   uint64
	valid bool
	lru   uint64
}

func newRefTLB(n int) *refTLB { return &refTLB{entries: make([]refTLBEntry, n)} }

func (t *refTLB) Lookup(addr uint64) bool {
	vpn := addr / PageBytes
	t.clock++
	t.Accesses++
	if t.haveLast && vpn == t.lastVPN {
		t.entries[t.lastIdx].lru = t.clock
		return true
	}
	t.lastVPN = vpn
	t.haveLast = true
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			e.lru = t.clock
			t.lastIdx = i
			return true
		}
	}
	victim := 0
	for i := 1; i < len(t.entries); i++ {
		if !t.entries[victim].valid {
			break
		}
		e := &t.entries[i]
		if !e.valid || e.lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.Misses++
	t.entries[victim] = refTLBEntry{vpn: vpn, valid: true, lru: t.clock}
	t.lastIdx = victim
	return false
}

func (t *refTLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
	t.haveLast = false
}

// addrStream is a named generator of byte addresses over units of
// unitBytes (pages for a TLB, lines for a cache) for a structure holding
// capUnits units.
type addrStream struct {
	name string
	gen  func(r *stats.RNG, i int) uint64
}

func addrStreams(unitBytes, capUnits int) []addrStream {
	u := uint64(unitBytes)
	off := func(r *stats.RNG) uint64 { return uint64(r.Intn(unitBytes)) }
	return []addrStream{
		// Uniform over 3x capacity: a steady mix of hits and misses.
		{"random", func(r *stats.RNG, _ int) uint64 {
			return uint64(r.Intn(3*capUnits))*u + off(r)
		}},
		// Fixed odd strides over a region 4x capacity, with a second
		// stream interleaved (distinct unit runs, repeated units).
		{"strided", func(r *stats.RNG, i int) uint64 {
			if i%3 == 2 {
				return 0x4000_0000 + uint64(i/3)*(u/2)
			}
			return (uint64(i) * (3*u + u/4)) % (4 * uint64(capUnits) * u)
		}},
		// Cycling over capacity+1 units: every access evicts the LRU
		// entry, the pattern LRU handles worst.
		{"thrash", func(r *stats.RNG, i int) uint64 {
			return uint64(i%(capUnits+1))*u + off(r)
		}},
		// A hot set of half the capacity with rare far misses, and huge
		// addresses near the top of the address space.
		{"hotcold", func(r *stats.RNG, i int) uint64 {
			if r.Bernoulli(0.1) {
				return ^uint64(0) - uint64(r.Intn(8*capUnits))*u
			}
			return uint64(r.Intn(capUnits/2+1))*u + off(r)
		}},
		// Few distinct units: with the frequent invalidations the
		// tie-heavy runs add, most victims are chosen among empty
		// entries that share a stamp.
		{"ties", func(r *stats.RNG, i int) uint64 {
			return uint64(r.Intn(4))*u*uint64(capUnits) + uint64(r.Intn(3))*u
		}},
	}
}

// sameTLBState compares every entry: the VPN held at each index (so the
// victim each miss chose) and, for valid entries, the LRU stamp.
func sameTLBState(got *TLB, want *refTLB) error {
	if got.Accesses != want.Accesses || got.Misses != want.Misses {
		return fmt.Errorf("counters %d/%d, want %d/%d", got.Accesses, got.Misses, want.Accesses, want.Misses)
	}
	for i, e := range want.entries {
		vpn := invalidVPN
		if e.valid {
			vpn = e.vpn
		}
		if got.vpns[i] != vpn {
			return fmt.Errorf("entry %d holds vpn %#x, want %#x", i, got.vpns[i], vpn)
		}
		if e.valid && got.lrus[i] != e.lru {
			return fmt.Errorf("entry %d lru %d, want %d", i, got.lrus[i], e.lru)
		}
	}
	return nil
}

// TestTLBMatchesReference drives the TLB and the reference model with
// the same address streams, with and without frequent flushes, and
// requires the same hit/miss sequence, counters and per-entry contents
// after every lookup.
func TestTLBMatchesReference(t *testing.T) {
	for _, size := range []int{1, 4, 64} {
		for _, s := range addrStreams(PageBytes, size) {
			for _, flushEvery := range []int{0, 7, 61} {
				for seed := uint64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("n%d/%s/flush%d/seed%d", size, s.name, flushEvery, seed)
					got, want := NewTLB(size), newRefTLB(size)
					r := stats.NewRNG(seed)
					for i := 0; i < 4000; i++ {
						if flushEvery > 0 && r.Intn(flushEvery) == 0 {
							got.Flush()
							want.Flush()
						}
						addr := s.gen(r, i)
						if g, w := got.Lookup(addr), want.Lookup(addr); g != w {
							t.Fatalf("%s: lookup %d of %#x hit=%v, want %v", name, i, addr, g, w)
						}
						if err := sameTLBState(got, want); err != nil {
							t.Fatalf("%s: after lookup %d of %#x: %v", name, i, addr, err)
						}
					}
				}
			}
		}
	}
}

// sameCacheState compares statistics and every way of every set.
func sameCacheState(got *Cache, want *refCache) error {
	if got.Stats != want.Stats {
		return fmt.Errorf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	if got.lruClock != want.lruClock {
		return fmt.Errorf("lru clock %d, want %d", got.lruClock, want.lruClock)
	}
	for s := range want.sets {
		for w, l := range want.sets[s] {
			if g := got.set(uint64(s))[w]; g != l {
				return fmt.Errorf("set %d way %d = %+v, want %+v", s, w, g, l)
			}
		}
	}
	return nil
}

// TestCacheMatchesReference drives the flat-array Cache and the
// reference model with the same mixed operation streams — reads,
// writes, prefetch fills (Fill against Contains-then-Access),
// lookups, single-line and whole-cache invalidations — and requires
// identical results, statistics, eviction-callback order (the victim
// sequence) and contents after every operation.
func TestCacheMatchesReference(t *testing.T) {
	cfgs := []Config{
		tinyCfg(),
		{Name: "direct", SizeBytes: 256, LineBytes: 64, Ways: 1, HitLatency: 1},
		{Name: "8way", SizeBytes: 2048, LineBytes: 64, Ways: 8, HitLatency: 30},
		{Name: "l0", SizeBytes: 2048, LineBytes: 64, Ways: 2, HitLatency: 1, WriteThrough: true},
	}
	for _, cfg := range cfgs {
		nlines := cfg.SizeBytes / cfg.LineBytes
		for _, s := range addrStreams(cfg.LineBytes, nlines) {
			for _, invalRate := range []float64{0.02, 0.3} {
				for seed := uint64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/%s/inval%v/seed%d", cfg.Name, s.name, invalRate, seed)
					got, want := MustNew(cfg), newRefCache(cfg)
					var gotEv, wantEv []uint64
					got.OnEvict = func(a uint64) { gotEv = append(gotEv, a) }
					want.OnEvict = func(a uint64) { wantEv = append(wantEv, a) }
					r := stats.NewRNG(seed)
					for i := 0; i < 3000; i++ {
						addr := s.gen(r, i)
						owner := Owner(r.Intn(3))
						var op string
						var g, w bool
						switch x := r.Float64(); {
						case x < invalRate*0.9:
							op = "invalidate"
							got.Invalidate(addr)
							want.Invalidate(addr)
						case x < invalRate:
							op = "invalidate-all"
							got.InvalidateAll()
							want.InvalidateAll()
						case x < invalRate+0.15:
							op = "fill"
							g = got.Fill(addr, owner)
							if w = want.Contains(addr); !w {
								want.Access(addr, false, owner)
							}
						case x < invalRate+0.25:
							op = "contains"
							g, w = got.Contains(addr), want.Contains(addr)
						default:
							write := r.Bernoulli(0.3)
							op = fmt.Sprintf("access(write=%v)", write)
							g, w = got.Access(addr, write, owner), want.Access(addr, write, owner)
						}
						if g != w {
							t.Fatalf("%s: op %d %s %#x returned %v, want %v", name, i, op, addr, g, w)
						}
						if len(gotEv) != len(wantEv) || (len(gotEv) > 0 && gotEv[len(gotEv)-1] != wantEv[len(wantEv)-1]) {
							t.Fatalf("%s: op %d %s %#x: evictions %x, want %x", name, i, op, addr, gotEv, wantEv)
						}
						if err := sameCacheState(got, want); err != nil {
							t.Fatalf("%s: after op %d %s %#x: %v", name, i, op, addr, err)
						}
					}
					for o := OwnerNone; o <= OwnerFiller; o++ {
						if g, w := got.OccupancyBy(o), want.OccupancyBy(o); g != w {
							t.Fatalf("%s: occupancy of %v %v, want %v", name, o, g, w)
						}
					}
				}
			}
		}
	}
}
