package cpu

import (
	"testing"

	"duplexity/internal/bpred"
	"duplexity/internal/isa"
	"duplexity/internal/stats"
)

func lenderConfig() PipelineConfig {
	c := TableIConfig()
	c.FreqGHz = 3.4
	return c
}

func newInO(t *testing.T, slots int) *InOCore {
	t.Helper()
	i, d := testRig()
	c, err := NewInOCore(lenderConfig(), slots, i, d, bpred.NewLenderUnit())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func batchStream(seed uint64) isa.Stream {
	return isa.MustSynthStream(isa.SynthConfig{
		Seed: seed, LoadFrac: 0.2, StoreFrac: 0.07, BranchFrac: 0.12,
		CodeBytes: 4096, DataBytes: 1 << 16, HotFrac: 0.95, HotBytes: 2 * 1024,
		StreamFrac: 0.25, DepP: 0.2, BranchRandomFrac: 0.04,
	})
}

func TestInOSingleThreadIPCBelowOoO(t *testing.T) {
	ino := newInO(t, 1)
	ino.Bind(0, batchStream(1), 0, 0)
	run(ino, 0, 50000)

	ooo := newOoO(t, []isa.Stream{batchStream(1)}, TableIConfig())
	run(ooo, 0, 50000)

	if ino.Stats.IPC() >= ooo.Stats.IPC() {
		t.Fatalf("InO single-thread IPC %v >= OoO %v", ino.Stats.IPC(), ooo.Stats.IPC())
	}
	if ino.Stats.IPC() <= 0 {
		t.Fatal("InO made no progress")
	}
}

// The Fig 2(a) effect: at ~8 threads, InO SMT throughput approaches OoO
// SMT throughput on the same 4-wide datapath.
func TestInOEightThreadsNearOoO(t *testing.T) {
	ino := newInO(t, 8)
	var streams []isa.Stream
	for i := 0; i < 8; i++ {
		s := batchStream(uint64(10 + i))
		streams = append(streams, s)
		ino.Bind(i, s, 0, 0)
	}
	run(ino, 0, 100000)

	i2, d2 := testRig()
	ooo, err := NewOoOCore(TableIConfig(), func() []isa.Stream {
		var ss []isa.Stream
		for i := 0; i < 8; i++ {
			ss = append(ss, batchStream(uint64(10+i)))
		}
		return ss
	}(), i2, d2, bpred.NewTableIUnit())
	if err != nil {
		t.Fatal(err)
	}
	run(ooo, 0, 100000)

	ratio := ino.Stats.IPC() / ooo.Stats.IPC()
	if ratio < 0.75 {
		t.Fatalf("InO/OoO 8-thread throughput ratio = %v (InO %v, OoO %v); Fig 2(a) expects convergence",
			ratio, ino.Stats.IPC(), ooo.Stats.IPC())
	}
	_ = streams
}

func TestInOThreadScaling(t *testing.T) {
	ipcAt := func(n int) float64 {
		c := newInO(t, n)
		for i := 0; i < n; i++ {
			c.Bind(i, batchStream(uint64(20+i)), 0, 0)
		}
		run(c, 0, 60000)
		return c.Stats.IPC()
	}
	one, four, eight := ipcAt(1), ipcAt(4), ipcAt(8)
	if !(one < four && four < eight*1.05) {
		t.Fatalf("InO scaling broken: 1t=%v 4t=%v 8t=%v", one, four, eight)
	}
	if eight < 1.9*one {
		t.Fatalf("8-thread InO IPC %v does not scale over 1-thread %v", eight, one)
	}
}

func TestInORemoteBlockAndRecovery(t *testing.T) {
	c := newInO(t, 1)
	cfg := isa.SynthConfig{
		Seed: 3, CodeBytes: 4096, DataBytes: 4096, DepP: 0,
		RemoteEvery: 100, RemoteLat: stats.Deterministic{Value: 500},
	}
	c.Bind(0, isa.MustSynthStream(cfg), 0, 0)
	run(c, 0, 100000)
	if c.Slot(0).Stats.Remotes == 0 {
		t.Fatal("no remotes issued")
	}
	// Utilization should reflect the ~500ns stalls per ~100 instrs:
	// far below an unstalled run.
	stalled := c.Stats.IPC()
	c2 := newInO(t, 1)
	cfg2 := cfg
	cfg2.RemoteEvery = 0
	cfg2.RemoteLat = nil
	c2.Bind(0, isa.MustSynthStream(cfg2), 0, 0)
	run(c2, 0, 100000)
	if stalled > c2.Stats.IPC()/4 {
		t.Fatalf("remote stalls not reflected: stalled %v vs clean %v", stalled, c2.Stats.IPC())
	}
}

func TestInOOnRemoteHandled(t *testing.T) {
	c := newInO(t, 1)
	cfg := isa.SynthConfig{
		Seed: 4, CodeBytes: 4096, DataBytes: 4096, DepP: 0,
		RemoteEvery: 50, RemoteLat: stats.Deterministic{Value: 1000},
	}
	c.Bind(0, isa.MustSynthStream(cfg), 0, 0)
	calls := 0
	c.OnRemote = func(slot int, in isa.Instr, completeAt uint64) RemoteAction {
		calls++
		// Pretend a scheduler swapped the context: rebind a fresh stream.
		c.UnbindInto(slot, nil)
		c.Bind(slot, batchStream(99), completeAt%1000, 20)
		return RemoteHandled
	}
	_ = calls
	run(c, 0, 20000)
	if calls == 0 {
		t.Fatal("OnRemote never called")
	}
	if c.Slot(0).Blocked(20000) {
		t.Fatal("slot blocked despite RemoteHandled")
	}
}

func TestInOBindUnbind(t *testing.T) {
	c := newInO(t, 2)
	s := batchStream(5)
	c.Bind(0, s, 100, 16)
	if !c.Slot(0).Active() {
		t.Fatal("bind did not activate slot")
	}
	// Swap-in latency: no issue before cycle 116.
	c.Step(100)
	if c.Stats.TotalRetired != 0 {
		t.Fatal("issued during swap-in window")
	}
	// After the swap-in window, fetch fills the buffer; unbinding then
	// must hand those instructions back for later replay.
	c.Step(120)
	got, pending := c.UnbindInto(0, nil)
	if got != s {
		t.Fatal("unbind returned wrong stream")
	}
	if len(pending) == 0 {
		t.Fatal("unbind did not return fetched-but-unissued instructions")
	}
	if c.Slot(0).Active() {
		t.Fatal("unbind left slot active")
	}
	// Stepping with no active slots must be safe.
	run(c, 200, 10)
}

func TestInOSlotCountValidation(t *testing.T) {
	i, d := testRig()
	if _, err := NewInOCore(lenderConfig(), 0, i, d, bpred.NewLenderUnit()); err == nil {
		t.Fatal("zero slots accepted")
	}
	bad := lenderConfig()
	bad.Width = 0
	if _, err := NewInOCore(bad, 8, i, d, bpred.NewLenderUnit()); err == nil {
		t.Fatal("invalid config accepted")
	}
}
