// Package cache implements the cache and TLB structures from Table I:
// private 64KB 2-way L1 I/D caches, a 1MB 8-way LLC slice, the
// master-core's 2KB/4KB write-through L0 filter caches, and 64-entry
// I/D TLBs. Caches track per-line owners so the simulator can account for
// cross-thread pollution (filler-threads evicting master-thread state),
// the central effect Duplexity's state segregation eliminates.
//
// Like the memory ports built on top of them (memsys.Port), caches are
// passive in simulated time: state changes only inside Lookup/Install
// calls issued by a stepping core, so the discrete-event engine
// (internal/core, engine.go) can jump quiescent spans without consulting
// them.
package cache

import "fmt"

// Owner identifies which logical occupant installed a cache line. The
// distinction that matters to the paper is master-thread state versus
// filler/batch-thread state.
type Owner uint8

// Owners.
const (
	OwnerNone Owner = iota
	OwnerMaster
	OwnerFiller
)

// String implements fmt.Stringer.
func (o Owner) String() string {
	switch o {
	case OwnerMaster:
		return "master"
	case OwnerFiller:
		return "filler"
	default:
		return "none"
	}
}

// Config describes one cache structure.
type Config struct {
	Name         string
	SizeBytes    int
	LineBytes    int
	Ways         int
	HitLatency   int  // cycles for a hit
	WriteThrough bool // no dirty lines; safe to discard any time (L0)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache %q: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	sets := lines / c.Ways
	if sets == 0 || sets*c.Ways != lines {
		return fmt.Errorf("cache %q: %d lines not divisible into %d ways", c.Name, lines, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: %d sets not a power of two", c.Name, sets)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache %q: negative hit latency", c.Name)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	owner Owner
	lru   uint64
}

// Stats accumulates access statistics, split by requesting owner.
type Stats struct {
	Accesses       [3]uint64 // indexed by Owner
	Misses         [3]uint64
	Evictions      uint64
	CrossEvictions uint64 // lines evicted by a different owner's fill
	Invalidations  uint64
	Writebacks     uint64
}

// TotalAccesses sums accesses across owners.
func (s Stats) TotalAccesses() uint64 {
	return s.Accesses[0] + s.Accesses[1] + s.Accesses[2]
}

// TotalMisses sums misses across owners.
func (s Stats) TotalMisses() uint64 { return s.Misses[0] + s.Misses[1] + s.Misses[2] }

// MissRate returns overall misses per access.
func (s Stats) MissRate() float64 {
	a := s.TotalAccesses()
	if a == 0 {
		return 0
	}
	return float64(s.TotalMisses()) / float64(a)
}

// MissRateFor returns the miss rate observed by one owner.
func (s Stats) MissRateFor(o Owner) float64 {
	if s.Accesses[o] == 0 {
		return 0
	}
	return float64(s.Misses[o]) / float64(s.Accesses[o])
}

// Cache is a set-associative, LRU, write-allocate cache model.
// It tracks line presence and ownership, not data contents.
type Cache struct {
	cfg Config
	// lines holds every set's ways back to back: set s is
	// lines[s*ways : (s+1)*ways].
	lines    []line
	ways     int
	setMask  uint64
	setBits  uint
	lineBits uint
	lruClock uint64

	// OnEvict, if set, is invoked with the line-aligned address of every
	// valid line this cache evicts or invalidates. Used to maintain
	// inclusion (lender L1 back-invalidates the master-core's L0).
	OnEvict func(lineAddr uint64)

	Stats Stats
}

// New validates cfg and builds an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	nsets := lines / cfg.Ways
	c := &Cache{cfg: cfg, lines: make([]line, lines), ways: cfg.Ways, setMask: uint64(nsets - 1)}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	for m := c.setMask; m > 0; m >>= 1 {
		c.setBits++
	}
	return c, nil
}

// MustNew is New that panics on invalid configuration.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// HitLatency returns the configured hit latency in cycles.
func (c *Cache) HitLatency() int { return c.cfg.HitLatency }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	l := addr >> c.lineBits
	return l & c.setMask, l >> c.setBits
}

// set returns the ways of set s.
func (c *Cache) set(s uint64) []line {
	lo := int(s) * c.ways
	return c.lines[lo : lo+c.ways : lo+c.ways]
}

// Access looks up addr for the given owner, allocating on miss (LRU
// victim) and reports whether the access hit. An evicted valid line's
// address goes to OnEvict.
func (c *Cache) Access(addr uint64, write bool, owner Owner) (hit bool) {
	set, tag := c.index(addr)
	c.lruClock++
	c.Stats.Accesses[owner]++
	ways := c.set(set)
	for i := range ways {
		if ways[i].tag == tag && ways[i].valid {
			ways[i].lru = c.lruClock
			if write && !c.cfg.WriteThrough {
				ways[i].dirty = true
			}
			return true
		}
	}
	c.miss(set, tag, ways, write, owner)
	return false
}

// Fill installs addr's line for owner unless it is already present, and
// reports whether it was. A present line is left untouched (no LRU,
// dirty or statistics update); an absent one is installed exactly as a
// read miss in Access installs it. This is Contains followed, on
// absence, by Access — in one set scan — and is what a prefetcher uses.
func (c *Cache) Fill(addr uint64, owner Owner) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if ways[i].tag == tag && ways[i].valid {
			return true
		}
	}
	c.lruClock++
	c.Stats.Accesses[owner]++
	c.miss(set, tag, ways, false, owner)
	return false
}

// miss counts a miss in set (whose ways are ways) and installs tag over
// the victim: the first invalid way, else the least recently used.
func (c *Cache) miss(set, tag uint64, ways []line, write bool, owner Owner) {
	c.Stats.Misses[owner]++
	// Choose victim: invalid way first, else least-recently used.
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
			c.OnEvict(c.lineAddr(set, ways[victim].tag))
		}
	}
fill:
	ways[victim] = line{tag: tag, valid: true, owner: owner, lru: c.lruClock,
		dirty: write && !c.cfg.WriteThrough}
}

// lineAddr reconstructs the line-aligned address from set and tag.
func (c *Cache) lineAddr(set, tag uint64) uint64 {
	return ((tag << c.setBits) | set) << c.lineBits
}

// Contains reports whether addr is present (no LRU/state update).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.set(set) {
		if l.tag == tag && l.valid {
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if present (coherence back-invalidation).
func (c *Cache) Invalidate(addr uint64) {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if ways[i].tag == tag && ways[i].valid {
			ways[i].valid = false
			c.Stats.Invalidations++
			return
		}
	}
}

// InvalidateAll discards every line (e.g. a write-through L0 whose
// contents may be dropped at any time).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		if c.lines[i].valid {
			c.lines[i].valid = false
			c.Stats.Invalidations++
		}
	}
}

// OccupancyBy returns the fraction of valid lines installed by owner.
func (c *Cache) OccupancyBy(owner Owner) float64 {
	mine := 0
	for _, l := range c.lines {
		if l.valid && l.owner == owner {
			mine++
		}
	}
	return float64(mine) / float64(len(c.lines))
}

// StorageBits returns tag+state storage (for the area model the data
// array is computed from SizeBytes separately).
func (c *Cache) StorageBits() int {
	lines := c.cfg.SizeBytes / c.cfg.LineBytes
	return lines * (48 + 2) // tag + valid + dirty, approximate
}
