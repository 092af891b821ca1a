package cpu

import (
	"testing"

	"duplexity/internal/bpred"
	"duplexity/internal/isa"
	"duplexity/internal/stats"
)

// stallStream builds the stall-heavy microservice-like workload the
// hot-loop benchmarks run: generic integer/memory mix with a ~1µs
// remote access every ~2000 instructions, so the core spends most of
// its time in exactly the stalled spans the event engine skips.
func stallStream(seed uint64) isa.Stream {
	return isa.MustSynthStream(isa.SynthConfig{
		Seed: seed, LoadFrac: 0.22, StoreFrac: 0.08, BranchFrac: 0.14,
		CodeBytes: 8 * 1024, DataBytes: 1 << 16, HotFrac: 0.95, HotBytes: 4 * 1024,
		StreamFrac: 0.2, DepP: 0.3, BranchRandomFrac: 0.06,
		RemoteEvery: 2000, RemoteLat: stats.Exponential{MeanVal: 1000},
	})
}

func benchOoO(b *testing.B, nthreads int) *OoOCore {
	b.Helper()
	streams := make([]isa.Stream, nthreads)
	for i := range streams {
		streams[i] = stallStream(uint64(1 + i))
	}
	iport, dport := testRig()
	c, err := NewOoOCore(TableIConfig(), streams, iport, dport, bpred.NewTableIUnit())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchInO(b *testing.B, slots int) *InOCore {
	b.Helper()
	iport, dport := testRig()
	c, err := NewInOCore(TableIConfig(), slots, iport, dport, bpred.NewLenderUnit())
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < slots; s++ {
		c.Bind(s, isa.MustSynthStream(isa.SynthConfig{
			Seed: uint64(10 + s), LoadFrac: 0.2, StoreFrac: 0.07, BranchFrac: 0.12,
			CodeBytes: 4096, DataBytes: 1 << 16, HotFrac: 0.95, HotBytes: 2 * 1024,
			StreamFrac: 0.25, DepP: 0.2, BranchRandomFrac: 0.04,
		}), 0, 0)
	}
	return c
}

// BenchmarkOoOStep measures the cycle-by-cycle cost of the OoO engine
// under the stall-heavy workload. Steady state must not allocate.
func BenchmarkOoOStep(b *testing.B) {
	c := benchOoO(b, 1)
	now := uint64(0)
	for ; now < 100_000; now++ { // warm caches, fill the ROB rings
		c.Step(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(now)
		now++
	}
}

// BenchmarkInOStep measures the lender pipeline's per-cycle cost with
// all eight slots bound.
func BenchmarkInOStep(b *testing.B) {
	c := benchInO(b, 8)
	now := uint64(0)
	for ; now < 100_000; now++ {
		c.Step(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(now)
		now++
	}
}

// TestOoOStepZeroAlloc pins the zero-allocation property of the OoO
// hot loop: after warmup, stepping must not allocate.
func TestOoOStepZeroAlloc(t *testing.T) {
	streams := []isa.Stream{stallStream(1), stallStream(2)}
	iport, dport := testRig()
	c, err := NewOoOCore(TableIConfig(), streams, iport, dport, bpred.NewTableIUnit())
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for ; now < 200_000; now++ {
		c.Step(now)
	}
	if n := testing.AllocsPerRun(5000, func() {
		c.Step(now)
		now++
	}); n != 0 {
		t.Fatalf("OoO Step allocates %.2f objects/cycle in steady state, want 0", n)
	}
}

// TestInOStepZeroAlloc pins the same property for the in-order lender
// pipeline.
func TestInOStepZeroAlloc(t *testing.T) {
	iport, dport := testRig()
	c, err := NewInOCore(TableIConfig(), 8, iport, dport, bpred.NewLenderUnit())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		c.Bind(s, stallStream(uint64(20+s)), 0, 0)
	}
	now := uint64(0)
	for ; now < 200_000; now++ {
		c.Step(now)
	}
	if n := testing.AllocsPerRun(5000, func() {
		c.Step(now)
		now++
	}); n != 0 {
		t.Fatalf("InO Step allocates %.2f objects/cycle in steady state, want 0", n)
	}
}
