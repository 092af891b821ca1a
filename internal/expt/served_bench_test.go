package expt

import "testing"

// BenchmarkServedHit times one warm served hit as the daemon answers
// it, minus HTTP: Resolve (validation, the key and its one digest) then
// ServeHit against a warm on-disk cache (one entry read, one typed
// decode). The four cells are one of each kind on one workload, and the
// two-phase kinds are non-Baseline, whose misses would build two
// micro-sim keys; each op is one hit, cycling through the kinds.
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
		if _, err := runCell(s, cs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := cells[i%len(cells)]
		r, err := s.Resolve(cs)
		if err != nil {
			b.Fatal(err)
		}
		if res, ok := s.ServeHit(&r, nil, false); !ok || !res.Cached {
			b.Fatalf("%s cell missed a warm cache", cs.Kind)
		}
	}
}
