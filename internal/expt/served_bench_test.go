package expt

import (
	"testing"
	"time"
)

// BenchmarkServedHit times one warm served hit as the daemon resolves
// it, minus HTTP: ServedKey (the serve layer's coalescing address) then
// RunServedDeadline against a warm on-disk cache. The four cells are
// one of each kind on one workload, so the two-phase kinds take the
// non-Baseline path that builds two micro-sim keys; each op is one hit,
// cycling through the kinds.
func BenchmarkServedHit(b *testing.B) {
	s := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: 1, CacheDir: b.TempDir()})
	if err := s.Err(); err != nil {
		b.Fatal(err)
	}
	cells := []CellSpec{
		{Kind: KindMatrix, Design: "Duplexity", Workload: "RSC", Load: 0.5},
		{Kind: KindTail, Design: "Duplexity", Workload: "RSC", Load: 0.5},
		{Kind: KindEnergyProp, Design: "Duplexity", Workload: "RSC", Load: 0.5, Governor: "fill"},
		{Kind: KindSlowdown, Design: "Duplexity", Workload: "RSC"},
	}
	for _, cs := range cells {
		if _, err := s.RunServed(cs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := cells[i%len(cells)]
		if _, err := s.ServedKey(cs); err != nil {
			b.Fatal(err)
		}
		res, err := s.RunServedDeadline(cs, nil, time.Time{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatalf("%s cell missed a warm cache", cs.Kind)
		}
	}
}
