package cpu

import (
	"testing"

	"duplexity/internal/bpred"
	"duplexity/internal/cache"
	"duplexity/internal/isa"
	"duplexity/internal/memsys"
	"duplexity/internal/stats"
)

// testRig builds a core-private memory system for pipeline tests.
func testRig() (iport, dport *memsys.Port) {
	cm := memsys.NewTableICoreMem("t")
	sh := memsys.NewTableIShared("t", 3.4)
	return memsys.LocalPorts(cm, sh, cache.OwnerMaster)
}

// alu returns a stream of independent single-cycle ALU instructions that
// all hit in one I-cache line's worth of PCs.
func aluStream() isa.Stream {
	instrs := make([]isa.Instr, 8)
	for i := range instrs {
		// No sources or destinations: fully independent.
		instrs[i] = isa.Instr{PC: uint64(0x1000 + i*4), Op: isa.OpIntAlu}
	}
	return &isa.Fixed{Instrs: instrs, Loop: true}
}

// chainStream returns instructions where each depends on the previous.
func chainStream() isa.Stream {
	instrs := make([]isa.Instr, 8)
	for i := range instrs {
		instrs[i] = isa.Instr{
			PC: uint64(0x1000 + i*4), Op: isa.OpIntAlu,
			Dst: 1, Src1: 1,
		}
	}
	return &isa.Fixed{Instrs: instrs, Loop: true}
}

// run steps c once per cycle over [start, start+n).
func run(c interface{ Step(uint64) }, start, n uint64) {
	for now := start; now < start+n; now++ {
		c.Step(now)
	}
}

func newOoO(t *testing.T, streams []isa.Stream, cfg PipelineConfig) *OoOCore {
	t.Helper()
	i, d := testRig()
	c, err := NewOoOCore(cfg, streams, i, d, bpred.NewTableIUnit())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOoOIndependentALUNearWidth(t *testing.T) {
	c := newOoO(t, []isa.Stream{aluStream()}, TableIConfig())
	run(c, 0, 20000)
	ipc := c.Stats.IPC()
	if ipc < 3.5 {
		t.Fatalf("independent ALU IPC = %v, want near 4", ipc)
	}
}

func TestOoODependentChainIPC1(t *testing.T) {
	c := newOoO(t, []isa.Stream{chainStream()}, TableIConfig())
	run(c, 0, 20000)
	ipc := c.Stats.IPC()
	if ipc < 0.85 || ipc > 1.1 {
		t.Fatalf("dependent chain IPC = %v, want ~1", ipc)
	}
}

func TestOoOLoadPortLimit(t *testing.T) {
	// Independent loads to one hot line: limited by 2 ld/st ports.
	instrs := make([]isa.Instr, 8)
	for i := range instrs {
		instrs[i] = isa.Instr{PC: uint64(0x1000 + i*4), Op: isa.OpLoad, Addr: 0x8000, Dst: isa.RegID(1 + i%8)}
	}
	c := newOoO(t, []isa.Stream{&isa.Fixed{Instrs: instrs, Loop: true}}, TableIConfig())
	run(c, 0, 20000)
	ipc := c.Stats.IPC()
	if ipc < 1.6 || ipc > 2.2 {
		t.Fatalf("load-bound IPC = %v, want ~2 (ld/st ports)", ipc)
	}
}

func TestOoOMispredictsHurt(t *testing.T) {
	mk := func(randomFrac float64) float64 {
		cfg := isa.SynthConfig{
			Seed: 5, BranchFrac: 0.2, CodeBytes: 4096, DataBytes: 4096,
			BranchRandomFrac: randomFrac, DepP: 0,
		}
		c := newOoO(t, []isa.Stream{isa.MustSynthStream(cfg)}, TableIConfig())
		run(c, 0, 50000)
		return c.Stats.IPC()
	}
	predictable := mk(0)
	chaotic := mk(1)
	if chaotic >= predictable*0.8 {
		t.Fatalf("random branches IPC %v not clearly below predictable %v", chaotic, predictable)
	}
}

func TestOoORemoteBlocksSingleThread(t *testing.T) {
	// 1µs remote every ~50 instructions at 3.4GHz: utilization collapses.
	cfg := isa.SynthConfig{
		Seed: 6, CodeBytes: 4096, DataBytes: 4096, DepP: 0,
		RemoteEvery: 50, RemoteLat: stats.Deterministic{Value: 1000},
	}
	c := newOoO(t, []isa.Stream{isa.MustSynthStream(cfg)}, TableIConfig())
	run(c, 0, 200000)
	util := c.Stats.Utilization(4)
	if util > 0.05 {
		t.Fatalf("remote-bound utilization = %v, want < 0.05", util)
	}
	if c.ThreadStats(0).Remotes == 0 {
		t.Fatal("no remote ops issued")
	}
}

func TestSMTSecondThreadFillsRemoteStalls(t *testing.T) {
	remote := isa.SynthConfig{
		Seed: 7, CodeBytes: 4096, DataBytes: 4096, DepP: 0,
		RemoteEvery: 100, RemoteLat: stats.Deterministic{Value: 1000},
	}
	solo := newOoO(t, []isa.Stream{isa.MustSynthStream(remote)}, TableIConfig())
	run(solo, 0, 100000)

	duo := newOoO(t, []isa.Stream{isa.MustSynthStream(remote), aluStream()}, TableIConfig())
	run(duo, 0, 100000)
	if duo.Stats.IPC() < 4*solo.Stats.IPC() {
		t.Fatalf("SMT IPC %v does not recover stall cycles (solo %v)", duo.Stats.IPC(), solo.Stats.IPC())
	}
}

func TestSMTPlusCapsCoRunner(t *testing.T) {
	// Thread 0 has a dependent chain (slow); thread 1 is ALU-bound. Under
	// plain SMT, thread 1 dominates issue slots; SMT+ must prioritize
	// thread 0's performance at the cost of thread 1.
	mkChain := func() isa.Stream { return chainStream() }
	plain := newOoO(t, []isa.Stream{mkChain(), aluStream()}, TableIConfig())
	run(plain, 0, 50000)
	plainT0 := plain.ThreadStats(0).Retired

	plus := newOoO(t, []isa.Stream{mkChain(), aluStream()}, SMTPlusConfig())
	run(plus, 0, 50000)
	plusT0 := plus.ThreadStats(0).Retired
	plusT1 := plus.ThreadStats(1).Retired

	if plusT0 < plainT0 {
		t.Fatalf("SMT+ hurt priority thread: %d < %d", plusT0, plainT0)
	}
	if plusT1 >= plus.ThreadStats(0).Retired*50 {
		t.Fatalf("SMT+ did not restrain co-runner: t1=%d t0=%d", plusT1, plusT0)
	}
}

func TestOoOIdleThreadCountsIdle(t *testing.T) {
	c := newOoO(t, []isa.Stream{&isa.Fixed{}}, TableIConfig())
	run(c, 0, 1000)
	if c.ThreadStats(0).IdleCycles == 0 {
		t.Fatal("idle stream did not accumulate idle cycles")
	}
	if c.Stats.TotalRetired != 0 {
		t.Fatal("idle stream retired instructions")
	}
}

func TestOoORequestEndCallback(t *testing.T) {
	instrs := make([]isa.Instr, 10)
	for i := range instrs {
		instrs[i] = isa.Instr{PC: uint64(0x1000 + i*4), Op: isa.OpIntAlu}
	}
	instrs[9].EndOfRequest = true
	c := newOoO(t, []isa.Stream{&isa.Fixed{Instrs: instrs, Loop: true}}, TableIConfig())
	var ends []uint64
	c.OnRequestEnd = func(tid int, now uint64) {
		if tid != 0 {
			t.Errorf("request end on wrong thread %d", tid)
		}
		ends = append(ends, now)
	}
	run(c, 0, 5000)
	if len(ends) == 0 {
		t.Fatal("no request completions observed")
	}
	if got := c.ThreadStats(0).RequestsCompleted; got != uint64(len(ends)) {
		t.Fatalf("stats requests %d != callbacks %d", got, len(ends))
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] <= ends[i-1] {
			t.Fatal("request completion times not increasing")
		}
	}
}

func TestMorphProtocol(t *testing.T) {
	cfg := isa.SynthConfig{
		Seed: 9, CodeBytes: 4096, DataBytes: 4096, DepP: 0,
		RemoteEvery: 200, RemoteLat: stats.Deterministic{Value: 1000},
	}
	c := newOoO(t, []isa.Stream{isa.MustSynthStream(cfg)}, TableIConfig())

	remoteSeen := false
	var completeAt uint64
	c.OnRemote = func(tid int, in isa.Instr, ca uint64) RemoteAction {
		remoteSeen = true
		completeAt = ca
		return RemoteHandled
	}
	now := uint64(0)
	for !remoteSeen && now < 100000 {
		c.Step(now)
		now++
	}
	if !remoteSeen {
		t.Fatal("no remote issued")
	}
	c.HaltFetch(0)
	if !c.SquashYoungerThanRemote(0) {
		t.Fatal("squash found no remote")
	}
	// Drain: step until only the remote remains.
	for i := 0; i < 1000 && !c.DrainedToRemote(0); i++ {
		c.Step(now)
		now++
	}
	if !c.DrainedToRemote(0) {
		t.Fatal("pipeline did not drain to the pending remote")
	}
	if ca, ok := c.HeadRemoteCompletion(0); !ok || ca != completeAt {
		t.Fatalf("head remote completion = %v,%v want %v", ca, ok, completeAt)
	}
	// Jump to completion, resume, and verify forward progress.
	now = completeAt
	c.ResumeFetch(0, now+50)
	before := c.Stats.TotalRetired
	for i := 0; i < 2000; i++ {
		c.Step(now)
		now++
	}
	if c.Stats.TotalRetired <= before {
		t.Fatal("no progress after morph-back")
	}
}

func TestSquashWithoutRemote(t *testing.T) {
	c := newOoO(t, []isa.Stream{aluStream()}, TableIConfig())
	run(c, 0, 100)
	if c.SquashYoungerThanRemote(0) {
		t.Fatal("squash reported success with no remote in flight")
	}
}

func TestCyclesFromNs(t *testing.T) {
	if got := CyclesFromNs(1000, 3.4); got != 3400 {
		t.Fatalf("1µs at 3.4GHz = %d, want 3400", got)
	}
	if got := CyclesFromNs(1, 3.25); got != 4 {
		t.Fatalf("1ns at 3.25GHz = %d, want 4 (ceil)", got)
	}
	if got := CyclesFromNs(0, 3.4); got != 0 {
		t.Fatalf("0ns = %d", got)
	}
}

func TestConfigValidation(t *testing.T) {
	good := TableIConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Width = 0
	if bad.Validate() == nil {
		t.Fatal("zero width accepted")
	}
	bad2 := good
	bad2.StorageCapFrac = 0
	bad2.PriorityThread = 0
	if bad2.Validate() == nil {
		t.Fatal("zero storage cap accepted")
	}
	if _, err := NewOoOCore(good, nil, nil, nil, nil); err == nil {
		t.Fatal("no threads accepted")
	}
}
