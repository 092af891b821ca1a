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

func TestExponentialMean(t *testing.T)   { checkMean(t, Exponential{MeanVal: 3.5}, 0.02) }
func TestUniformMean(t *testing.T)       { checkMean(t, Uniform{Lo: 2, Hi: 10}, 0.02) }
func TestLognormalMean(t *testing.T)     { checkMean(t, Lognormal{MeanVal: 4, CV: 1.0}, 0.05) }
func TestBoundedParetoMean(t *testing.T) { checkMean(t, BoundedPareto{L: 1, H: 100, Alpha: 1.5}, 0.05) }
func TestShiftedMean(t *testing.T) {
	checkMean(t, Shifted{Base: Exponential{MeanVal: 2}, Shift: 5}, 0.02)
}
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

func TestBoundedParetoSupport(t *testing.T) {
	d := BoundedPareto{L: 2, H: 50, Alpha: 1.2}
	r := NewRNG(14)
	for i := 0; i < 100000; i++ {
		v := d.Sample(r)
		if v < d.L-1e-9 || v > d.H+1e-9 {
			t.Fatalf("sample %v outside [%v,%v]", v, d.L, d.H)
		}
	}
}

func TestMixtureValidation(t *testing.T) {
	if _, err := NewMixture(nil, nil); err == nil {
		t.Fatal("empty mixture accepted")
	}
	if _, err := NewMixture([]Distribution{Deterministic{1}}, []float64{0.5}); err == nil {
		t.Fatal("weights not summing to 1 accepted")
	}
	if _, err := NewMixture([]Distribution{Deterministic{1}}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	m, err := NewMixture(
		[]Distribution{Deterministic{1}, Deterministic{3}},
		[]float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mean()-2.5) > 1e-12 {
		t.Fatalf("mixture mean = %v, want 2.5", m.Mean())
	}
	checkMean(t, m, 0.02)
}

func TestEmpirical(t *testing.T) {
	if _, err := NewEmpirical(nil); err == nil {
		t.Fatal("empty empirical accepted")
	}
	obs := []float64{5, 1, 3, 2, 4}
	e, err := NewEmpirical(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Mean()-3) > 1e-12 {
		t.Fatalf("empirical mean = %v, want 3", e.Mean())
	}
	if got := e.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := e.Quantile(1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	r := NewRNG(15)
	for i := 0; i < 10000; i++ {
		v := e.Sample(r)
		if v < 1 || v > 5 {
			t.Fatalf("empirical sample %v outside data range", v)
		}
	}
	checkMean(t, e, 0.03)
}

func TestEmpiricalSingle(t *testing.T) {
	e, err := NewEmpirical([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if e.Sample(NewRNG(1)) != 7 {
		t.Fatal("single-point empirical should always return the point")
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
