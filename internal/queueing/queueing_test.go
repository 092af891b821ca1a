package queueing

import (
	"math"
	"testing"

	"duplexity/internal/stats"
)

func TestConfigValidation(t *testing.T) {
	if _, err := Simulate(Config{ArrivalQPS: 0, ServiceUs: stats.Exponential{MeanVal: 1}}); err == nil {
		t.Fatal("zero arrival rate accepted")
	}
	if _, err := Simulate(Config{ArrivalQPS: 1000}); err == nil {
		t.Fatal("missing service distribution accepted")
	}
	// Load exactly 1: unstable.
	if _, err := Simulate(Config{ArrivalQPS: 100_000, ServiceUs: stats.Deterministic{Value: 10}}); err == nil {
		t.Fatal("unit load accepted")
	}
	// Extra pushing load over 1.
	if _, err := Simulate(Config{
		ArrivalQPS: 90_000,
		ServiceUs:  stats.Deterministic{Value: 10},
		ExtraUs:    2,
	}); err == nil {
		t.Fatal("extra overhead pushing load over 1 accepted")
	}
}

func TestMM1AgainstTheory(t *testing.T) {
	// M/M/1: λ=50K, µ=100K (10µs exponential service) → ρ=0.5.
	cfg := Config{
		ArrivalQPS: 50_000,
		ServiceUs:  stats.Exponential{MeanVal: 10},
		Seed:       42,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := MM1MeanUs(50_000, 10) // 20µs
	if math.Abs(res.MeanUs-wantMean)/wantMean > 0.05 {
		t.Fatalf("mean sojourn %v µs, theory %v", res.MeanUs, wantMean)
	}
	wantP99 := MM1P99Us(50_000, 10) // ~92.1µs
	if math.Abs(res.P99Us-wantP99)/wantP99 > 0.08 {
		t.Fatalf("p99 %v µs, theory %v", res.P99Us, wantP99)
	}
	if math.Abs(res.Utilization-0.5) > 0.02 {
		t.Fatalf("utilization %v, want 0.5", res.Utilization)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if !(res.P99LoUs <= res.P99Us && res.P99Us <= res.P99HiUs) {
		t.Fatal("CI does not bracket estimate")
	}
}

func TestMDOneBeatsMM1Tail(t *testing.T) {
	// Deterministic service has lower tail than exponential at equal load.
	det, err := Simulate(Config{ArrivalQPS: 50_000, ServiceUs: stats.Deterministic{Value: 10}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := Simulate(Config{ArrivalQPS: 50_000, ServiceUs: stats.Exponential{MeanVal: 10}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if det.P99Us >= exp.P99Us {
		t.Fatalf("M/D/1 p99 %v not below M/M/1 %v", det.P99Us, exp.P99Us)
	}
}

func TestTailGrowsWithLoad(t *testing.T) {
	p99 := func(load float64) float64 {
		res, err := Simulate(Config{
			ArrivalQPS: load * 100_000,
			ServiceUs:  stats.Lognormal{MeanVal: 10, CV: 1},
			Seed:       7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.P99Us
	}
	l30, l50, l70 := p99(0.3), p99(0.5), p99(0.7)
	if !(l30 < l50 && l50 < l70) {
		t.Fatalf("p99 not increasing with load: %v %v %v", l30, l50, l70)
	}
	// Queueing amplification: 70% load should be much worse than 30%.
	if l70 < 1.5*l30 {
		t.Fatalf("insufficient tail amplification: %v vs %v", l70, l30)
	}
}

func TestExtraOverheadShiftsLatency(t *testing.T) {
	base, err := Simulate(Config{ArrivalQPS: 30_000, ServiceUs: stats.Deterministic{Value: 10}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := Simulate(Config{
		ArrivalQPS: 30_000,
		ServiceUs:  stats.Deterministic{Value: 10},
		ExtraUs:    5,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if extra.MeanUs < base.MeanUs+4 {
		t.Fatalf("per-request extra not reflected: %v vs %v", extra.MeanUs, base.MeanUs)
	}
}

func TestMaxRequestsBound(t *testing.T) {
	res, err := Simulate(Config{
		ArrivalQPS:   50_000,
		ServiceUs:    stats.Lognormal{MeanVal: 10, CV: 2},
		MaxRequests:  5000,
		MinRequests:  4000,
		TargetRelErr: 0.0001, // unreachable
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("claimed convergence at impossible tolerance")
	}
	if res.Completed > 5100 {
		t.Fatalf("overran MaxRequests: %d", res.Completed)
	}
}

func TestMeanQueueDepthSane(t *testing.T) {
	// Little's law sanity: E[N_wait] = λ * E[W_wait]. At ρ=0.5 M/M/1,
	// waiting time = 10µs → N ≈ 0.5.
	res, err := Simulate(Config{ArrivalQPS: 50_000, ServiceUs: stats.Exponential{MeanVal: 10}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wait := res.MeanUs - 10 // subtract mean service
	littles := 50_000 * wait / 1e6
	if math.Abs(res.MeanQueueDepth-littles)/littles > 0.15 {
		t.Fatalf("queue depth %v violates Little's law (want ~%v)", res.MeanQueueDepth, littles)
	}
}

func TestMM1Helpers(t *testing.T) {
	if !math.IsInf(MM1P99Us(100_000, 10), 1) || !math.IsInf(MM1MeanUs(100_000, 10), 1) {
		t.Fatal("overloaded M/M/1 should be infinite")
	}
	if math.Abs(MM1MeanUs(50_000, 10)-20) > 1e-9 {
		t.Fatal("M/M/1 mean formula wrong")
	}
}
