package stats

import "testing"

// BenchmarkLatencyRecorderConverge is one tail cell's queries: 400 000
// lognormal observations, the convergence check (QuantileCI at the 99th
// percentile, which converges at its first call), then the quantiles a
// finished simulation reports. The recorder answers them by selection,
// so no step sorts all the samples.
func BenchmarkLatencyRecorderConverge(b *testing.B) {
	const n = 400_000
	obs := make([]float64, n)
	r := NewRNG(1)
	d := Lognormal{MeanVal: 10, CV: 2}.Prepared()
	for i := range obs {
		obs[i] = d.Sample(r)
	}
	l := NewLatencyRecorder(2 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Reset()
		for _, x := range obs {
			l.Add(x)
		}
		if !l.RelativeQuantileErrorBelow(0.99, 1.96, 0.05) {
			b.Fatal("did not converge")
		}
		l.QuantileCI(0.99, 1.96)
		l.Quantile(0.50)
		l.Quantile(0.95)
	}
}
