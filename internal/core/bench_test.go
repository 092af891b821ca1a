package core

import (
	"runtime"
	"testing"
	"time"

	"duplexity/internal/graphwl"
	"duplexity/internal/workload"
)

func benchDyad(tb testing.TB, design Design, mode ExecMode) *Dyad {
	tb.Helper()
	gen := masterGen(1, true)
	master, err := workload.NewRequestStream(gen, 100_000, design.FreqGHz(), 7)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := NewDyad(Config{
		Design:       design,
		MasterStream: master,
		BatchStreams: batchStreams(32, 100),
	})
	if err != nil {
		tb.Fatal(err)
	}
	d.Exec = mode
	return d
}

// BenchmarkDyadStep measures the full dyad's cycle-by-cycle cost —
// master OoO engine, morph controller, lender scheduler, and workload
// admission — under moderate load. Steady state must not allocate.
func BenchmarkDyadStep(b *testing.B) {
	for _, design := range []Design{DesignBaseline, DesignDuplexity} {
		b.Run(design.String(), func(b *testing.B) {
			d := benchDyad(b, design, ExecStepped)
			for i := 0; i < 200_000; i++ {
				d.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Step()
			}
		})
	}
}

// BenchmarkDyadRun measures simulated cycles per wall second through the
// Run path in both execution modes; the step-to-event ratio is the
// discrete-event speedup on this (moderate-load) workload. Steady state
// must not allocate in either mode.
func BenchmarkDyadRun(b *testing.B) {
	for _, mode := range []ExecMode{ExecStepped, ExecEvent} {
		b.Run(mode.String(), func(b *testing.B) {
			d := benchDyad(b, DesignDuplexity, mode)
			d.Run(200_000)
			b.ReportAllocs()
			b.ResetTimer()
			d.Run(uint64(b.N))
		})
	}
}

// TestEventEngineSpeedupFloor pins the discrete-event engine's win where
// the paper's killer microseconds dominate: a McRouter master at 2 %
// load with no batch threads, so the dyad idles between requests and
// stalls on every remote. For each design it runs the same dyad
// stepped and on the event engine for 3M cycles, checks that both runs
// agree on the clock, the master core's stats and the completed
// requests, and fails if stepping takes less than 10x the event
// engine's wall time. Each mode's time is the fastest of three
// interleaved runs: on a shared host another tenant can stall the
// 30 ms event run by as much as the run itself, and the fastest run is
// the one such stalls touched least.
func TestEventEngineSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("six 3M-cycle runs per design; skipped with -short")
	}
	if raceEnabled {
		t.Skip("wall-clock ratio; the race detector slows the two loops unequally")
	}
	const (
		cycles = 3_000_000
		load   = 0.02
		rounds = 3
		floor  = 10.0
	)
	spec := workload.McRouter()
	run := func(design Design, mode ExecMode) (*Dyad, time.Duration) {
		t.Helper()
		master, err := spec.NewMaster(load, design.FreqGHz(), 1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDyad(Config{Design: design, MasterStream: master})
		if err != nil {
			t.Fatal(err)
		}
		d.Exec = mode
		// Collect the construction garbage now, so no GC cycle it owes
		// lands inside the timed run.
		runtime.GC()
		t0 := time.Now()
		d.Run(cycles)
		return d, time.Since(t0)
	}
	for _, design := range []Design{DesignBaseline, DesignDuplexity} {
		var stepped, event time.Duration
		for r := 0; r < rounds; r++ {
			ref, ts := run(design, ExecStepped)
			d, te := run(design, ExecEvent)
			if d.Now() != ref.Now() {
				t.Fatalf("%v: clock diverged: %d vs stepped %d", design, d.Now(), ref.Now())
			}
			if d.MasterOoO.Stats != ref.MasterOoO.Stats {
				t.Fatalf("%v: master core stats diverged:\nevent   %+v\nstepped %+v",
					design, d.MasterOoO.Stats, ref.MasterOoO.Stats)
			}
			if a, b := d.MasterOoO.ThreadStats(0).RequestsCompleted, ref.MasterOoO.ThreadStats(0).RequestsCompleted; a != b {
				t.Fatalf("%v: completed requests diverged: %d vs stepped %d", design, a, b)
			}
			if r == 0 || ts < stepped {
				stepped = ts
			}
			if r == 0 || te < event {
				event = te
			}
		}
		speedup := stepped.Seconds() / event.Seconds()
		t.Logf("%v: stepped %v, event %v, speedup %.2fx", design, stepped, event, speedup)
		if speedup < floor {
			t.Errorf("%v: event engine %.2fx faster than stepping, below the %.0fx floor", design, speedup, floor)
		}
	}
}

// TestDyadStepZeroAlloc pins the zero-allocation property of the whole
// simulation hot loop: a warmed dyad must step without allocating.
// (Request latency recording appends to a pre-sized reservoir; at this
// load the steady-state window sees amortized-zero growth.)
func TestDyadStepZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle warmup; skipped with -short")
	}
	for _, design := range []Design{DesignBaseline, DesignDuplexity} {
		d := benchDyad(t, design, ExecStepped)
		for i := 0; i < 2_000_000; i++ {
			d.Step()
		}
		if n := testing.AllocsPerRun(20_000, func() { d.Step() }); n != 0 {
			t.Fatalf("%v: Dyad.Step allocates %.4f objects/cycle in steady state, want 0", design, n)
		}
	}
}

// TestDyadEventRunZeroAlloc pins the same property for the event
// engine's run loop: after the engine is built (first Run), further runs
// — heap maintenance, lazy span charging, pool invalidation included —
// must not allocate.
func TestDyadEventRunZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle warmup; skipped with -short")
	}
	for _, design := range []Design{DesignBaseline, DesignDuplexity} {
		d := benchDyad(t, design, ExecEvent)
		d.Run(2_000_000)
		if n := testing.AllocsPerRun(100, func() { d.Run(1_000) }); n != 0 {
			t.Fatalf("%v: event-mode Run allocates %.4f objects/call in steady state, want 0", design, n)
		}
	}
}

// benchDyadBSP is benchDyad with the matrix campaign's filler set in
// place of the synthetic batch streams: the Section V BSP set (16
// PageRank + 16 SSSP workers over the matrix's 4096-vertex power-law
// graph). It returns the two BSP jobs so callers can observe superstep
// progress.
func benchDyadBSP(tb testing.TB, design Design, mode ExecMode) (*Dyad, *graphwl.Job, *graphwl.Job) {
	tb.Helper()
	master, err := workload.NewRequestStream(masterGen(1, true), 100_000, design.FreqGHz(), 7)
	if err != nil {
		tb.Fatal(err)
	}
	g := graphwl.MustGenPowerLaw(4096, 12, 0.5, 1)
	fillers, pr, ss, err := graphwl.NewFillerSet(g, 32, 2)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := NewDyad(Config{Design: design, MasterStream: master, BatchStreams: fillers})
	if err != nil {
		tb.Fatal(err)
	}
	d.Exec = mode
	return d, pr, ss
}

// BenchmarkDyadBSP measures the event engine on the workload the matrix
// campaign actually simulates — the BSP filler set, not a synthetic
// batch stream — reporting ns per simulated cycle. Steady state,
// superstep rollovers included, must not allocate.
func BenchmarkDyadBSP(b *testing.B) {
	for _, design := range []Design{DesignBaseline, DesignDuplexity} {
		b.Run(design.String(), func(b *testing.B) {
			d, _, _ := benchDyadBSP(b, design, ExecEvent)
			d.Run(1_000_000)
			b.ReportAllocs()
			b.ResetTimer()
			d.Run(uint64(b.N))
		})
	}
}

// TestDyadBSPZeroAlloc pins the zero-allocation property for the BSP
// filler set in event mode across superstep rollovers, where the
// generator resets its per-superstep state for every worker.
func TestDyadBSPZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle warmup; skipped with -short")
	}
	for _, design := range []Design{DesignBaseline, DesignDuplexity} {
		d, pr, ss := benchDyadBSP(t, design, ExecEvent)
		// Supersteps completed (NewFillerSet jobs run 10 per kernel run).
		steps := func(j *graphwl.Job) uint64 { return j.Runs*10 + uint64(j.Superstep()) }
		// Warm up through two supersteps of both jobs, so every worker's
		// instruction queue has reached the longest gather its shard emits.
		for d.Now() < 2_000_000 || steps(pr) < 2 || steps(ss) < 2 {
			d.Run(100_000)
		}
		before := steps(pr) + steps(ss)
		if n := testing.AllocsPerRun(4, func() { d.Run(500_000) }); n != 0 {
			t.Fatalf("%v: event-mode Run over the BSP filler set allocates %.2f objects per 500k cycles, want 0", design, n)
		}
		if rolled := steps(pr) + steps(ss) - before; rolled < 3 {
			t.Fatalf("%v: measured window crossed %d superstep rollovers, want >= 3", design, rolled)
		}
	}
}
