package isa

import (
	"testing"
	"testing/quick"
	"unsafe"

	"duplexity/internal/stats"
)

func TestOpClassString(t *testing.T) {
	cases := map[OpClass]string{
		OpNop: "nop", OpIntAlu: "int", OpIntMul: "mul", OpFPAlu: "fp",
		OpLoad: "load", OpStore: "store", OpBranch: "branch", OpRemote: "remote",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	if OpClass(200).String() == "" {
		t.Error("unknown op class should still stringify")
	}
}

func TestFixedStream(t *testing.T) {
	instrs := []Instr{{PC: 0}, {PC: 4}, {PC: 8}}
	f := &Fixed{Instrs: instrs}
	for i := 0; i < 3; i++ {
		in, ok := f.Next(0)
		if !ok || in.PC != uint64(i*4) {
			t.Fatalf("step %d: got %v ok=%v", i, in.PC, ok)
		}
	}
	if _, ok := f.Next(0); ok {
		t.Fatal("non-looping fixed stream should exhaust")
	}
	loop := &Fixed{Instrs: instrs, Loop: true}
	for i := 0; i < 10; i++ {
		in, ok := loop.Next(0)
		if !ok || in.PC != uint64((i%3)*4) {
			t.Fatalf("loop step %d: got %v ok=%v", i, in.PC, ok)
		}
	}
	empty := &Fixed{}
	if _, ok := empty.Next(0); ok {
		t.Fatal("empty fixed stream should be idle")
	}
}

func baseCfg(seed uint64) SynthConfig {
	return SynthConfig{
		Seed:       seed,
		LoadFrac:   0.25,
		StoreFrac:  0.10,
		BranchFrac: 0.15,
		FPFrac:     0.05,
		MulFrac:    0.02,
		CodeBytes:  16 * 1024,
		DataBytes:  1 << 20,
		HotFrac:    0.9,
		HotBytes:   32 * 1024,
		StreamFrac: 0.3,
		DepP:       0.4,
	}
}

func TestSynthValidate(t *testing.T) {
	bad := baseCfg(1)
	bad.LoadFrac = 0.9
	bad.BranchFrac = 0.5
	if _, err := NewSynthStream(bad); err == nil {
		t.Fatal("over-full op mix accepted")
	}
	bad2 := baseCfg(1)
	bad2.RemoteEvery = 10
	if _, err := NewSynthStream(bad2); err == nil {
		t.Fatal("RemoteEvery without RemoteLat accepted")
	}
	bad3 := baseCfg(1)
	bad3.CodeBytes = 0
	if _, err := NewSynthStream(bad3); err == nil {
		t.Fatal("zero code footprint accepted")
	}
	bad4 := baseCfg(1)
	bad4.DataBytes = 0
	if _, err := NewSynthStream(bad4); err == nil {
		t.Fatal("zero data footprint with memory ops accepted")
	}
	bad5 := baseCfg(1)
	bad5.DepP = 1.5
	if _, err := NewSynthStream(bad5); err == nil {
		t.Fatal("out-of-range fraction accepted")
	}
}

func TestSynthDeterminism(t *testing.T) {
	a := MustSynthStream(baseCfg(7))
	b := MustSynthStream(baseCfg(7))
	for i := 0; i < 10000; i++ {
		x, _ := a.Next(0)
		y, _ := b.Next(0)
		if x != y {
			t.Fatalf("streams diverged at instruction %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestSynthOpMix(t *testing.T) {
	s := MustSynthStream(baseCfg(3))
	counts := map[OpClass]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		in, ok := s.Next(0)
		if !ok {
			t.Fatal("synthetic stream went idle")
		}
		counts[in.Op]++
	}
	frac := func(op OpClass) float64 { return float64(counts[op]) / n }
	// Loads/stores should be near the configured mix (branch count is
	// inflated slightly by the loop-back branch).
	if f := frac(OpLoad); f < 0.2 || f > 0.3 {
		t.Errorf("load frac = %v, want ~0.25", f)
	}
	if f := frac(OpStore); f < 0.07 || f > 0.13 {
		t.Errorf("store frac = %v, want ~0.10", f)
	}
	if f := frac(OpBranch); f < 0.12 || f > 0.20 {
		t.Errorf("branch frac = %v, want ~0.15", f)
	}
	if counts[OpIntAlu] == 0 || counts[OpFPAlu] == 0 {
		t.Error("missing ALU instructions")
	}
}

func TestSynthPCWithinFootprint(t *testing.T) {
	cfg := baseCfg(4)
	s := MustSynthStream(cfg)
	base := s.codeBase
	for i := 0; i < 50000; i++ {
		in, _ := s.Next(0)
		if in.PC < base || in.PC >= base+cfg.CodeBytes {
			t.Fatalf("PC %#x outside code footprint [%#x,%#x)", in.PC, base, base+cfg.CodeBytes)
		}
		if in.Op == OpBranch && in.Taken {
			if in.Target < base || in.Target >= base+cfg.CodeBytes {
				t.Fatalf("branch target %#x outside footprint", in.Target)
			}
		}
	}
}

func TestSynthAddrWithinWorkingSet(t *testing.T) {
	cfg := baseCfg(5)
	s := MustSynthStream(cfg)
	base := s.dataBase
	for i := 0; i < 50000; i++ {
		in, _ := s.Next(0)
		if in.Op == OpLoad || in.Op == OpStore {
			if in.Addr < base || in.Addr >= base+cfg.DataBytes {
				t.Fatalf("addr %#x outside working set", in.Addr)
			}
		}
	}
}

func TestSynthRemoteRate(t *testing.T) {
	cfg := baseCfg(6)
	cfg.RemoteEvery = 100
	cfg.RemoteLat = stats.Exponential{MeanVal: 1000}
	s := MustSynthStream(cfg)
	remotes := 0
	var latSum float64
	const n = 200000
	for i := 0; i < n; i++ {
		in, _ := s.Next(0)
		if in.Op == OpRemote {
			remotes++
			latSum += in.RemoteNs
			if in.RemoteNs <= 0 {
				t.Fatal("remote op with non-positive latency")
			}
		}
	}
	rate := float64(n) / float64(remotes)
	if rate < 80 || rate > 120 {
		t.Errorf("remote gap = %v instrs, want ~100", rate)
	}
	if mean := latSum / float64(remotes); mean < 800 || mean > 1200 {
		t.Errorf("mean remote latency = %v ns, want ~1000", mean)
	}
}

func TestSynthRequestBoundaries(t *testing.T) {
	cfg := baseCfg(8)
	cfg.InstrsPerRequest = stats.Deterministic{Value: 50}
	s := MustSynthStream(cfg)
	gap := 0
	boundaries := 0
	for i := 0; i < 5000; i++ {
		in, _ := s.Next(0)
		gap++
		if in.EndOfRequest {
			if gap != 50 {
				t.Fatalf("request length %d, want 50", gap)
			}
			gap = 0
			boundaries++
		}
	}
	if boundaries != 100 {
		t.Fatalf("saw %d request boundaries in 5000 instrs, want 100", boundaries)
	}
}

// Property: destination registers are always valid, and memory ops always
// carry an address.
func TestSynthInstrWellFormed(t *testing.T) {
	f := func(seed uint64) bool {
		s := MustSynthStream(baseCfg(seed))
		for i := 0; i < 2000; i++ {
			in, ok := s.Next(0)
			if !ok {
				return false
			}
			if in.Dst >= NumArchRegs || in.Src1 >= NumArchRegs || in.Src2 >= NumArchRegs {
				return false
			}
			switch in.Op {
			case OpLoad, OpStore:
				if in.Addr == 0 {
					return false
				}
			case OpBranch:
				if in.Taken && in.Target == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordReplay(t *testing.T) {
	s := MustSynthStream(baseCfg(9))
	tr := Record(s, 1000)
	if len(tr) != 1000 {
		t.Fatalf("recorded %d instrs", len(tr))
	}
	rep := &Fixed{Instrs: tr, Loop: true}
	for i := 0; i < 2500; i++ {
		in, ok := rep.Next(0)
		if !ok {
			t.Fatal("looping replay went idle")
		}
		if in != tr[i%1000] {
			t.Fatalf("replay mismatch at %d", i)
		}
	}
}

// TestInstrSize pins the packed layout: pipelines copy an Instr on every
// fetch, buffer push and issue, so padding costs on every instruction.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 40 {
		t.Fatalf("isa.Instr is %d bytes, want 40", n)
	}
}
