package memsys

import (
	"fmt"
	"testing"

	"duplexity/internal/cache"
	"duplexity/internal/stats"
)

// refTrackers is the previous stream-prefetcher scan (three comparisons
// per tracker, Contains before each fill), kept as the oracle for
// Port.prefetch.
type refTrackers struct {
	streams   [16]uint64
	streamPtr int
	l1, llc   *cache.Cache
	owner     cache.Owner
}

func (p *refTrackers) prefetch(addr uint64) {
	line := addr >> 6
	for i := range p.streams {
		if line == p.streams[i] || line == p.streams[i]+1 {
			p.streams[i] = line + 1
			for d := uint64(1); d <= 2; d++ {
				next := (line + d) << 6
				if !p.l1.Contains(next) {
					p.l1.Access(next, false, p.owner)
					p.llc.Access(next, false, p.owner)
				}
			}
			return
		}
		if line+1 == p.streams[i] {
			return
		}
	}
	p.streams[p.streamPtr] = line + 1
	p.streamPtr = (p.streamPtr + 1) % len(p.streams)
}

// prefetchStreams are line-number generators: sequential runs, runs that
// skip lines, backward steps, more interleaved streams than trackers,
// random lines, and a handful of low lines on which many trackers hold
// the same expectation (every tracker starts at line 0), so first-match
// order decides.
func prefetchStreams() []struct {
	name string
	gen  func(r *stats.RNG, i int) uint64
} {
	return []struct {
		name string
		gen  func(r *stats.RNG, i int) uint64
	}{
		{"sequential", func(_ *stats.RNG, i int) uint64 { return uint64(i / 3) }},
		{"skips", func(_ *stats.RNG, i int) uint64 { return uint64(i * 3 / 2) }},
		{"backward", func(r *stats.RNG, i int) uint64 { return 1000 + uint64(i/2) - uint64(r.Intn(3)) }},
		{"interleaved-4", func(_ *stats.RNG, i int) uint64 { return uint64(i%4)<<20 + uint64(i/4) }},
		{"interleaved-20", func(_ *stats.RNG, i int) uint64 { return uint64(i%20)<<20 + uint64(i/20) }},
		{"random", func(r *stats.RNG, _ int) uint64 { return uint64(r.Intn(1 << 12)) }},
		{"ties", func(r *stats.RNG, _ int) uint64 { return uint64(r.Intn(6)) }},
		{"wrap", func(r *stats.RNG, i int) uint64 { return ^uint64(0)>>6 - uint64(r.Intn(5)) }},
	}
}

// TestPrefetchMatchesReference drives a Port's prefetcher and the
// reference scan, each followed by the demand L1 access Port.Access
// makes, over the same line streams, and requires the same tracker
// table, L1/LLC statistics and eviction order after every access.
func TestPrefetchMatchesReference(t *testing.T) {
	mk := func() (*cache.Cache, *cache.Cache) {
		return cache.MustNew(cache.Config{Name: "l1", SizeBytes: 2048, LineBytes: 64, Ways: 2}),
			cache.MustNew(cache.Config{Name: "llc", SizeBytes: 8192, LineBytes: 64, Ways: 8})
	}
	for _, s := range prefetchStreams() {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", s.name, seed)
			l1, llc := mk()
			p := &Port{L1: l1, Shared: &Shared{LLC: llc}, Owner: cache.OwnerFiller}
			rl1, rllc := mk()
			ref := &refTrackers{l1: rl1, llc: rllc, owner: cache.OwnerFiller}
			var ev, refEv []uint64
			l1.OnEvict = func(a uint64) { ev = append(ev, a) }
			llc.OnEvict = func(a uint64) { ev = append(ev, a|1) }
			rl1.OnEvict = func(a uint64) { refEv = append(refEv, a) }
			rllc.OnEvict = func(a uint64) { refEv = append(refEv, a|1) }
			seen := 0 // evictions already compared
			r := stats.NewRNG(seed)
			for i := 0; i < 5000; i++ {
				addr := s.gen(r, i)<<6 | uint64(r.Intn(64))
				write := r.Bernoulli(0.2)
				p.prefetch(addr)
				hit := l1.Access(addr, write, p.Owner)
				ref.prefetch(addr)
				refHit := rl1.Access(addr, write, ref.owner)
				if hit != refHit {
					t.Fatalf("%s: access %d to %#x hit=%v, want %v", name, i, addr, hit, refHit)
				}
				if p.streams != ref.streams || p.streamPtr != ref.streamPtr {
					t.Fatalf("%s: access %d to %#x: trackers %x ptr %d, want %x ptr %d",
						name, i, addr, p.streams, p.streamPtr, ref.streams, ref.streamPtr)
				}
				if l1.Stats != rl1.Stats || llc.Stats != rllc.Stats {
					t.Fatalf("%s: access %d to %#x: stats L1 %+v LLC %+v, want %+v %+v",
						name, i, addr, l1.Stats, llc.Stats, rl1.Stats, rllc.Stats)
				}
				if fmt.Sprint(ev[seen:]) != fmt.Sprint(refEv[seen:]) {
					t.Fatalf("%s: access %d to %#x: evictions %x, want %x", name, i, addr, ev[seen:], refEv[seen:])
				}
				seen = len(ev)
			}
		}
	}
}
