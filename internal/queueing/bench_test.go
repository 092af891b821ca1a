package queueing

import (
	"testing"

	"duplexity/internal/idle"
	"duplexity/internal/stats"
)

// BenchmarkQueueingConverge measures a tail cell's simulation: 400 000
// requests to the MinRequests floor, then the convergence check and the
// final quantiles. The LatencyRecorder answers them by selection around
// the 99th percentile instead of sorting every sample. Each op has a
// seed of its own, so it draws its whole request stream, and the
// drawing, the event loop and the recorder's inserts are all timed.
func BenchmarkQueueingConverge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(Config{
			ArrivalQPS: 80_000,
			ServiceUs:  stats.Lognormal{MeanVal: 10, CV: 2}.Prepared(),
			// A high floor forces ~MinRequests/8192 convergence checks
			// over a large sample set even when the tail converges early.
			MinRequests: 400_000,
			MaxRequests: 500_000,
			Seed:        uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed < 400_000 {
			b.Fatalf("completed %d < floor", res.Completed)
		}
	}
}

// BenchmarkTailPoint measures one (workload, load) point of the tail
// campaign: seven designs' slowdown factors over one lognormal and one
// seed, run back to back as a single worker runs them. Each op has a
// seed of its own.
func BenchmarkTailPoint(b *testing.B) {
	base := stats.Lognormal{MeanVal: 10, CV: 2}.Prepared()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range []float64{1, 1.02, 1.05, 1.1, 1.18, 1.25, 1.4} {
			_, err := Simulate(Config{
				ArrivalQPS:  50_000,
				ServiceUs:   stats.Scaled{Base: base, Factor: f},
				Seed:        uint64(i) + 1,
				MinRequests: 400_000,
				MaxRequests: 3_000_000,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEnergyCell measures one scaled-down energyprop cell: an
// adaptive idle governor over a 30 000-request floor, on a seed no
// other op uses, as every cold energyprop cell has.
func BenchmarkEnergyCell(b *testing.B) {
	gov, ok := idle.ByName(idle.GovAdaptive)
	if !ok {
		b.Fatal("no adaptive governor")
	}
	base := stats.Lognormal{MeanVal: 12, CV: 1}.Prepared()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Simulate(Config{
			ArrivalQPS:  30_000,
			ServiceUs:   stats.Scaled{Base: base, Factor: 1.1},
			IdleGov:     gov,
			Seed:        uint64(i) + 1,
			MinRequests: 30_000,
			MaxRequests: 150_000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
