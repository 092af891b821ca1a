package core

import (
	"testing"

	"duplexity/internal/isa"
	"duplexity/internal/stats"
	"duplexity/internal/workload"
)

// masterGen builds a microservice-like per-request generator: ~3µs of
// compute (at ~1 IPC) per request with a 1µs remote access in the middle.
func masterGen(seed uint64, withRemote bool) *isa.SynthStream {
	cfg := isa.SynthConfig{
		Seed: seed, LoadFrac: 0.22, StoreFrac: 0.08, BranchFrac: 0.14,
		CodeBytes: 8 * 1024, DataBytes: 1 << 16, HotFrac: 0.95, HotBytes: 4 * 1024,
		StreamFrac: 0.2, DepP: 0.3, BranchRandomFrac: 0.06,
		InstrsPerRequest: stats.Deterministic{Value: 4000},
	}
	if withRemote {
		cfg.RemoteEvery = 2000
		cfg.RemoteLat = stats.Exponential{MeanVal: 1000}
	}
	return isa.MustSynthStream(cfg)
}

func batchStreams(n int, seed uint64) []isa.Stream {
	out := make([]isa.Stream, n)
	for i := range out {
		out[i] = isa.MustSynthStream(isa.SynthConfig{
			Seed: seed + uint64(i), LoadFrac: 0.2, StoreFrac: 0.07, BranchFrac: 0.12,
			CodeBytes: 4096, DataBytes: 1 << 16, HotFrac: 0.95, HotBytes: 2 * 1024,
			StreamFrac: 0.25, DepP: 0.2, BranchRandomFrac: 0.04,
			RemoteEvery: 5000, RemoteLat: stats.Exponential{MeanVal: 1000},
		})
	}
	return out
}

func makeDyad(t *testing.T, design Design, qps float64) *Dyad {
	t.Helper()
	gen := masterGen(1, true)
	master, err := workload.NewRequestStream(gen, qps, design.FreqGHz(), 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDyad(Config{
		Design:       design,
		MasterStream: master,
		BatchStreams: batchStreams(32, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDesignStringsAndProps(t *testing.T) {
	for _, d := range AllDesigns {
		if d.String() == "" {
			t.Fatalf("design %d has empty name", d)
		}
		if d.FreqGHz() <= 0 {
			t.Fatalf("design %v has non-positive frequency", d)
		}
	}
	if DesignBaseline.Morphs() || DesignSMT.Morphs() {
		t.Fatal("non-morphing designs report morphing")
	}
	if !DesignDuplexity.Morphs() {
		t.Fatal("Duplexity properties wrong")
	}
	if DesignDuplexity.RestartLat() != DuplexityRestartLat {
		t.Fatal("Duplexity restart latency wrong")
	}
	if DesignBaseline.RestartLat() != 0 {
		t.Fatal("baseline should have no restart latency")
	}
}

func TestNewDyadValidation(t *testing.T) {
	if _, err := NewDyad(Config{Design: DesignBaseline}); err == nil {
		t.Fatal("missing master stream accepted")
	}
	if _, err := NewDyad(Config{Design: DesignSMT, MasterStream: masterGen(1, false)}); err == nil {
		t.Fatal("SMT without co-runner accepted")
	}
	if _, err := NewDyad(Config{
		Design: DesignMorphCore, MasterStream: masterGen(1, false),
		BatchStreams: batchStreams(4, 5),
	}); err == nil {
		t.Fatal("MorphCore with <8 batch streams accepted")
	}
}

func TestAllDesignsRunAndCompleteRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation; skipped with -short")
	}
	for _, design := range AllDesigns {
		d := makeDyad(t, design, 100_000) // 100K QPS: moderate load
		done := d.RunUntilRequests(50, 5_000_000)
		if done < 50 {
			t.Fatalf("%v: only %d requests completed", design, done)
		}
		if d.Latencies.Count() == 0 {
			t.Fatalf("%v: no latencies recorded", design)
		}
		if u := d.MasterUtilization(); u <= 0 || u > 1 {
			t.Fatalf("%v: utilization %v out of range", design, u)
		}
	}
}

func TestDuplexityMorphsAndFills(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation; skipped with -short")
	}
	d := makeDyad(t, DesignDuplexity, 100_000)
	d.RunUntilRequests(100, 8_000_000)
	ms := d.Master.Stats
	if ms.Morphs == 0 {
		t.Fatal("no stall-triggered morphs")
	}
	if ms.IdleMorphs == 0 {
		t.Fatal("no idle-triggered morphs")
	}
	if ms.FillerCycles == 0 {
		t.Fatal("no filler-mode cycles")
	}
	if d.Master.FillerCore().Stats.TotalRetired == 0 {
		t.Fatal("fillers retired nothing on the master-core")
	}
}

func TestDuplexityUtilizationBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation; skipped with -short")
	}
	base := makeDyad(t, DesignBaseline, 100_000)
	base.Run(2_000_000)
	dup := makeDyad(t, DesignDuplexity, 100_000)
	dup.Run(2_000_000)
	bu, du := base.MasterUtilization(), dup.MasterUtilization()
	if du < 2*bu {
		t.Fatalf("Duplexity utilization %v not clearly above baseline %v", du, bu)
	}
}

func TestDuplexityProtectsMasterState(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation; skipped with -short")
	}
	// After running Duplexity with heavy filler activity, the
	// master-core's own L1s must contain no filler-owned lines.
	d := makeDyad(t, DesignDuplexity, 50_000)
	d.Run(2_000_000)
	if occ := d.MasterMem.L1D.OccupancyBy(cacheOwnerFiller()); occ != 0 {
		t.Fatalf("filler lines in master L1D: %v", occ)
	}
	if occ := d.MasterMem.L1I.OccupancyBy(cacheOwnerFiller()); occ != 0 {
		t.Fatalf("filler lines in master L1I: %v", occ)
	}
	if d.MasterMem.L1D.Stats.CrossEvictions != 0 {
		t.Fatal("cross-owner evictions in master L1D under Duplexity")
	}
}

func TestMorphCorePollutesMasterState(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation; skipped with -short")
	}
	d := makeDyad(t, DesignMorphCorePlus, 50_000)
	d.Run(2_000_000)
	if occ := d.MasterMem.L1D.OccupancyBy(cacheOwnerFiller()); occ == 0 {
		t.Fatal("MorphCore+ fillers left no footprint in master L1D (sharing broken)")
	}
	if d.MasterMem.L1D.Stats.CrossEvictions == 0 {
		t.Fatal("no cross-owner evictions under MorphCore+ (pollution not modelled)")
	}
}

func TestTailLatencyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation; skipped with -short")
	}
	// SMT co-location should inflate the microservice's p99 relative to
	// Duplexity at the same load.
	p99 := func(design Design) float64 {
		d := makeDyad(t, design, 150_000)
		d.RunUntilRequests(200, 10_000_000)
		return d.Latencies.P99()
	}
	base := p99(DesignBaseline)
	smt := p99(DesignSMT)
	dup := p99(DesignDuplexity)
	if smt < base {
		t.Fatalf("SMT p99 (%v cycles) below baseline (%v)", smt, base)
	}
	if dup > smt {
		t.Fatalf("Duplexity p99 (%v cycles) above SMT (%v): isolation not working", dup, smt)
	}
}

func TestBatchThroughputAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation; skipped with -short")
	}
	d := makeDyad(t, DesignDuplexity, 100_000)
	d.Run(3_000_000)
	if d.BatchRetired() == 0 {
		t.Fatal("no batch instructions retired")
	}
	if d.RemoteOps() == 0 {
		t.Fatal("no remote ops counted")
	}
	if d.Seconds() <= 0 {
		t.Fatal("elapsed seconds not positive")
	}
	if us := d.CyclesToUs(3250); us < 0.9 || us > 1.1 {
		t.Fatalf("3250 cycles at 3.25GHz = %v µs, want ~1", us)
	}
}

func TestModeString(t *testing.T) {
	if ModeMaster.String() != "master" || ModeDraining.String() != "draining" || ModeFiller.String() != "filler" {
		t.Fatal("mode names wrong")
	}
}
