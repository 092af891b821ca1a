package core

import (
	"reflect"
	"testing"

	"duplexity/internal/telemetry"
	"duplexity/internal/workload"
)

// hashSink folds every telemetry event into an order-sensitive FNV-1a
// hash. Comparing hashes between two runs asserts that the full event
// streams — kinds, cycle stamps, sources, and arguments, in emission
// order — are identical.
type hashSink struct {
	h uint64
	n uint64
}

func newHashSink() *hashSink { return &hashSink{h: 1469598103934665603} }

func (s *hashSink) word(v uint64) {
	for i := 0; i < 8; i++ {
		s.h ^= v & 0xff
		s.h *= 1099511628211
		v >>= 8
	}
}

func (s *hashSink) Emit(e telemetry.Event) {
	s.word(e.Cycle)
	s.word(uint64(e.Kind))
	s.word(uint64(e.Src))
	s.word(e.A)
	s.word(e.B)
	s.n++
}

// makeTracedDyad is makeDyad with an explicit execution mode and a
// hashing telemetry sink attached before any cycle runs.
func makeTracedDyad(t *testing.T, design Design, qps float64, mode ExecMode) (*Dyad, *hashSink) {
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
	d.Exec = mode
	sink := newHashSink()
	d.EnableTelemetry(sink)
	return d, sink
}

// compareDyads asserts that a dyad run on the event engine and the
// cycle-by-cycle reference ended in externally identical states: clock,
// every stats struct, the telemetry event stream, the collected metric
// registry, the formatted thread report, and the raw latency samples.
func compareDyads(t *testing.T, design Design, got, ref *Dyad, gotSink, refSink *hashSink) {
	t.Helper()
	if got.Now() != ref.Now() {
		t.Fatalf("%v: clock diverged: %d vs stepped %d", design, got.Now(), ref.Now())
	}
	if gotSink.n != refSink.n || gotSink.h != refSink.h {
		t.Fatalf("%v: telemetry streams diverged: %d events hash %x, stepped %d events hash %x",
			design, gotSink.n, gotSink.h, refSink.n, refSink.h)
	}
	if a, b := *got.MasterOoO.ThreadStats(0), *ref.MasterOoO.ThreadStats(0); a != b {
		t.Fatalf("%v: master thread stats diverged:\ngot     %+v\nstepped %+v", design, a, b)
	}
	if got.MasterOoO.Stats != ref.MasterOoO.Stats {
		t.Fatalf("%v: master core stats diverged:\ngot     %+v\nstepped %+v",
			design, got.MasterOoO.Stats, ref.MasterOoO.Stats)
	}
	if (got.Master == nil) != (ref.Master == nil) {
		t.Fatalf("%v: master-core presence diverged", design)
	}
	if got.Master != nil && got.Master.Stats != ref.Master.Stats {
		t.Fatalf("%v: morph stats diverged:\ngot     %+v\nstepped %+v",
			design, got.Master.Stats, ref.Master.Stats)
	}
	if a, b := got.Latencies.Samples(), ref.Latencies.Samples(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%v: latency samples diverged: got %d samples, stepped %d", design, len(a), len(b))
	}
	gotReg, refReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	got.CollectInto(gotReg)
	ref.CollectInto(refReg)
	if a, b := gotReg.Snapshot(got.Now()), refReg.Snapshot(ref.Now()); !reflect.DeepEqual(a, b) {
		t.Fatalf("%v: collected registries diverged:\ngot     %+v\nstepped %+v", design, a, b)
	}
	if a, b := got.ThreadReport(), ref.ThreadReport(); a != b {
		t.Fatalf("%v: thread reports diverged:\ngot:\n%s\nstepped:\n%s", design, a, b)
	}
}

// TestEventEquivalence is the equivalence invariant: for every design, a
// dyad run on the discrete-event engine must be bit-identical — stats,
// telemetry counters, event stream, latency samples — to the same dyad
// stepped cycle by cycle.
func TestEventEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation; skipped with -short")
	}
	const budget = 1_200_000
	for _, design := range AllDesigns {
		ref, refSink := makeTracedDyad(t, design, 100_000, ExecStepped)
		ref.Run(budget)
		if ref.SkippedCycles != 0 {
			t.Fatalf("%v: cycle-by-cycle dyad reports %d skipped cycles", design, ref.SkippedCycles)
		}
		d, sink := makeTracedDyad(t, design, 100_000, ExecEvent)
		d.Run(budget)
		compareDyads(t, design, d, ref, sink, refSink)
		if design == DesignBaseline && d.SkippedCycles == 0 {
			t.Fatalf("%v: never skipped (remote stalls should quiesce the dyad)", design)
		}
	}
}

// TestEventEquivalenceUntilRequests exercises the RunUntilRequests path,
// which interleaves clock jumps with request-completion checks.
func TestEventEquivalenceUntilRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation; skipped with -short")
	}
	for _, design := range []Design{DesignBaseline, DesignDuplexity} {
		ref, refSink := makeTracedDyad(t, design, 100_000, ExecStepped)
		nref := ref.RunUntilRequests(60, 6_000_000)
		d, sink := makeTracedDyad(t, design, 100_000, ExecEvent)
		n := d.RunUntilRequests(60, 6_000_000)
		if n != nref {
			t.Fatalf("%v: completed requests diverged: %d vs stepped %d", design, n, nref)
		}
		compareDyads(t, design, d, ref, sink, refSink)
	}
}

// TestEventEquivalenceQuick is the raced smoke variant of the
// equivalence suite: small enough to run under the race detector in
// check.sh's -short pass, yet covering both designs' full mode machinery
// (master/draining/filler transitions, pool steals between the lender
// and the master's filler engine). Unlike the full suite it is NOT
// skipped with -short.
func TestEventEquivalenceQuick(t *testing.T) {
	const budget = 220_000
	for _, design := range []Design{DesignBaseline, DesignDuplexity} {
		ref, refSink := makeTracedDyad(t, design, 100_000, ExecStepped)
		ref.Run(budget)
		d, sink := makeTracedDyad(t, design, 100_000, ExecEvent)
		d.Run(budget)
		compareDyads(t, design, d, ref, sink, refSink)
	}
}

// TestChipEventEquivalence checks the chip-level engine: a two-dyad chip
// sharing an LLC must produce identical per-dyad stats on the event
// engine and stepped. A busy dyad must not keep a stalled neighbour's
// clock ticking, and the shared-LLC access interleaving must still
// match lockstep exactly.
func TestChipEventEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation; skipped with -short")
	}
	build := func(mode ExecMode) *Chip {
		t.Helper()
		cfg := ChipConfig{Design: DesignDuplexity}
		for i := uint64(0); i < 2; i++ {
			gen := masterGen(1+i, true)
			master, err := workload.NewRequestStream(gen, 100_000, cfg.Design.FreqGHz(), 7+i)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Masters = append(cfg.Masters, master)
			cfg.Batches = append(cfg.Batches, batchStreams(32, 100+100*i))
		}
		c, err := NewChip(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range c.Dyads {
			d.Exec = mode
		}
		return c
	}
	ref := build(ExecStepped)
	ref.Run(800_000)
	c := build(ExecEvent)
	c.Run(800_000)
	if c.Now() != ref.Now() {
		t.Fatalf("chip clock diverged: %d vs stepped %d", c.Now(), ref.Now())
	}
	for i := range c.Dyads {
		a, b := c.Dyads[i], ref.Dyads[i]
		if a.Now() != b.Now() {
			t.Fatalf("dyad %d clock diverged: %d vs stepped %d", i, a.Now(), b.Now())
		}
		if a.MasterOoO.Stats != b.MasterOoO.Stats {
			t.Fatalf("dyad %d: master core stats diverged:\ngot     %+v\nstepped %+v",
				i, a.MasterOoO.Stats, b.MasterOoO.Stats)
		}
		if a.Master.Stats != b.Master.Stats {
			t.Fatalf("dyad %d: morph stats diverged:\ngot     %+v\nstepped %+v",
				i, a.Master.Stats, b.Master.Stats)
		}
		if !reflect.DeepEqual(a.Latencies.Samples(), b.Latencies.Samples()) {
			t.Fatalf("dyad %d: latency samples diverged", i)
		}
		if a.ThreadReport() != b.ThreadReport() {
			t.Fatalf("dyad %d: thread reports diverged", i)
		}
	}
	if c.Shared.LLC.Stats != ref.Shared.LLC.Stats {
		t.Fatalf("shared LLC stats diverged:\ngot     %+v\nstepped %+v",
			c.Shared.LLC.Stats, ref.Shared.LLC.Stats)
	}
}
