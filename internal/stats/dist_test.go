package stats

import (
	"math"
	"testing"
)

// sampleMean draws n samples and returns their mean.
func sampleMean(d Distribution, n int, seed uint64) float64 {
	r := NewRNG(seed)
	var s Summary
	for i := 0; i < n; i++ {
		s.Add(d.Sample(r))
	}
	return s.Mean()
}

func checkMean(t *testing.T, d Distribution, tol float64) {
	t.Helper()
	got := sampleMean(d, 200000, 99)
	want := d.Mean()
	if math.Abs(got-want) > tol*math.Max(want, 1e-12) {
		t.Fatalf("%s: sample mean %v, analytic mean %v", d, got, want)
	}
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 4.2}
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 4.2 {
			t.Fatal("deterministic sample differs from value")
		}
	}
	if d.Mean() != 4.2 {
		t.Fatal("deterministic mean differs from value")
	}
}

func TestExponentialMean(t *testing.T) { checkMean(t, Exponential{MeanVal: 3.5}, 0.02) }
func TestUniformMean(t *testing.T)     { checkMean(t, Uniform{Lo: 2, Hi: 10}, 0.02) }
func TestLognormalMean(t *testing.T)   { checkMean(t, Lognormal{MeanVal: 4, CV: 1.0}, 0.05) }
func TestScaledMean(t *testing.T) {
	checkMean(t, Scaled{Base: Exponential{MeanVal: 2}, Factor: 3}, 0.02)
}

func TestExponentialCDF(t *testing.T) {
	e := Exponential{MeanVal: 2}
	if got := e.CDF(0); got != 0 {
		t.Fatalf("CDF(0) = %v", got)
	}
	if got := e.CDF(-1); got != 0 {
		t.Fatalf("CDF(-1) = %v", got)
	}
	// CDF(mean) = 1 - 1/e.
	want := 1 - math.Exp(-1)
	if got := e.CDF(2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CDF(mean) = %v, want %v", got, want)
	}
	// Empirical check.
	r := NewRNG(12)
	under := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if e.Sample(r) <= 3 {
			under++
		}
	}
	if math.Abs(float64(under)/n-e.CDF(3)) > 0.01 {
		t.Fatalf("empirical CDF(3) = %v, analytic %v", float64(under)/n, e.CDF(3))
	}
}

func TestLognormalCV(t *testing.T) {
	d := Lognormal{MeanVal: 10, CV: 1.5}
	r := NewRNG(13)
	var s Summary
	for i := 0; i < 400000; i++ {
		s.Add(d.Sample(r))
	}
	if math.Abs(s.CV()-1.5) > 0.1 {
		t.Fatalf("lognormal CV = %v, want ~1.5", s.CV())
	}
}

// The prepared sampler draws exactly what the mean/CV formula draws, and
// describes itself as the plain distribution does.
func TestLognormalPreparedMatches(t *testing.T) {
	for _, d := range []Lognormal{{MeanVal: 10, CV: 1.5}, {MeanVal: 0.3, CV: 0.2}, {MeanVal: 250, CV: 3}} {
		p := d.Prepared()
		if p.Mean() != d.Mean() || p.String() != d.String() {
			t.Fatalf("%v: prepared Mean/String = %v/%q", d, p.Mean(), p.String())
		}
		r1, r2 := NewRNG(21), NewRNG(21)
		s2 := math.Log(1 + d.CV*d.CV)
		mu, sigma := math.Log(d.MeanVal)-s2/2, math.Sqrt(s2)
		for i := 0; i < 1000; i++ {
			want := math.Exp(mu + sigma*r1.NormFloat64())
			if got := p.Sample(r2); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v: draw %d = %v, want %v", d, i, got, want)
			}
		}
	}
}
