package queueing

import (
	"testing"

	"duplexity/internal/stats"
)

// BenchmarkQueueingConverge measures a tail cell's simulation: 400 000
// requests to the MinRequests floor, then the convergence check and the
// final quantiles. The LatencyRecorder answers them by selection around
// the 99th percentile instead of sorting every sample, so the run is
// dominated by drawing requests, not by the stopping rule.
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
