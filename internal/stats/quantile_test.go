package stats

import (
	"math"
	"sort"
	"testing"
)

func TestLatencyRecorderBasics(t *testing.T) {
	l := NewLatencyRecorder(16)
	if l.Count() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	if !math.IsNaN(l.Mean()) {
		t.Fatal("mean of empty recorder should be NaN")
	}
	for i := 1; i <= 100; i++ {
		l.Add(float64(i))
	}
	if l.Count() != 100 {
		t.Fatalf("count = %d", l.Count())
	}
	if math.Abs(l.Mean()-50.5) > 1e-9 {
		t.Fatalf("mean = %v", l.Mean())
	}
	if p := l.P99(); math.Abs(p-99.01) > 0.5 {
		t.Fatalf("p99 = %v, want ~99", p)
	}
	l.Reset()
	if l.Count() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestLatencyRecorderInterleavedSort(t *testing.T) {
	l := NewLatencyRecorder(4)
	l.Add(5)
	l.Add(1)
	if got := l.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	l.Add(0.5) // must re-sort after adding
	if got := l.Quantile(0); got != 0.5 {
		t.Fatalf("q0 after add = %v", got)
	}
}

// refQuantileCI is QuantileCI's specification: the binomial
// order-statistic interval read from a full sort.
func refQuantileCI(sorted []float64, q, z float64) (est, lo, hi float64) {
	n := len(sorted)
	sd := z * math.Sqrt(float64(n)*q*(1-q))
	loIdx := int(math.Floor(q*float64(n) - sd))
	hiIdx := int(math.Ceil(q*float64(n) + sd))
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx > n-1 {
		hiIdx = n - 1
	}
	return Quantile(sorted, q), sorted[loIdx], sorted[hiIdx]
}

// TestLatencyRecorderMatchesFullSort is a randomized property test: for
// input streams that stress selection (ties, all-equal, sorted and
// reversed input, and rising or falling non-stationary streams that
// force the tracked window to be re-cut), random interleavings of Add,
// Quantile, QuantileCI, Samples and Reset answer bit-for-bit what a full
// sort of the same observations answers.
func TestLatencyRecorderMatchesFullSort(t *testing.T) {
	streams := map[string]func(r *RNG, i int) float64{
		"exponential": func(r *RNG, i int) float64 { return r.ExpFloat64() * 100 },
		"ties":        func(r *RNG, i int) float64 { return float64(r.Intn(5)) },
		"all-equal":   func(r *RNG, i int) float64 { return 7 },
		"sorted":      func(r *RNG, i int) float64 { return float64(i) },
		"reversed":    func(r *RNG, i int) float64 { return float64(-i) },
		"rising":      func(r *RNG, i int) float64 { return float64(i)*0.01 + r.ExpFloat64() },
		"falling":     func(r *RNG, i int) float64 { return 1e4/float64(i+1) + r.ExpFloat64() },
	}
	qs := []float64{0, 0.001, 0.25, 0.5, 0.95, 0.99, 0.999, 1}
	for name, gen := range streams {
		t.Run(name, func(t *testing.T) {
			rng := NewRNG(uint64(len(name)) * 7919)
			l := NewLatencyRecorder(64)
			var ref []float64
			sum := 0.0
			added := 0
			check := func(step int, what string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d (n=%d): %s = %v, want %v", step, len(ref), what, got, want)
				}
			}
			cuts := map[float64]bool{}
			for step := 0; step < 300; step++ {
				sorted := func() []float64 {
					s := append([]float64(nil), ref...)
					sort.Float64s(s)
					return s
				}
				switch op := rng.Intn(10); {
				case op < 4: // a batch of Adds, sometimes empty, sometimes large
					n := rng.Intn(2000)
					for i := 0; i < n; i++ {
						x := gen(rng, added)
						added++
						l.Add(x)
						ref = append(ref, x)
						sum += x
					}
				case op < 6:
					q := qs[rng.Intn(len(qs))]
					check(step, "Quantile", l.Quantile(q), Quantile(sorted(), q))
				case op < 8:
					if len(ref) == 0 {
						break
					}
					q := qs[1+rng.Intn(len(qs)-2)]
					est, lo, hi := l.QuantileCI(q, 1.96)
					wEst, wLo, wHi := refQuantileCI(sorted(), q, 1.96)
					cuts[l.cut] = true
					check(step, "QuantileCI est", est, wEst)
					check(step, "QuantileCI lo", lo, wLo)
					check(step, "QuantileCI hi", hi, wHi)
				case op < 9:
					got, sorted := l.Samples(), sorted()
					if len(got) != len(sorted) {
						t.Fatalf("step %d: Samples len %d, want %d", step, len(got), len(sorted))
					}
					for i := range got {
						check(step, "Samples", got[i], sorted[i])
					}
				default:
					if rng.Intn(4) == 0 {
						l.Reset()
						ref, sum = ref[:0], 0
					}
				}
				if l.Count() != len(ref) {
					t.Fatalf("step %d: Count = %d, want %d", step, l.Count(), len(ref))
				}
				if len(ref) > 0 {
					check(step, "Mean", l.Mean(), sum/float64(len(ref)))
				}
			}
			if (name == "rising" || name == "falling") && len(cuts) < 3 {
				t.Fatalf("a non-stationary stream re-cut the window only %d times", len(cuts))
			}
		})
	}
}

// TestSelectRankAdversarial checks selection alone on the inputs that
// defeat naive pivots: every rank of sorted, reversed, all-equal,
// two-valued and organ-pipe arrays.
func TestSelectRankAdversarial(t *testing.T) {
	const n = 300
	inputs := map[string]func(i int) float64{
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(n - i) },
		"all-equal":  func(i int) float64 { return 1 },
		"two-valued": func(i int) float64 { return float64(i % 2) },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-i)) },
	}
	for name, f := range inputs {
		want := make([]float64, n)
		for i := range want {
			want[i] = f(i)
		}
		sort.Float64s(want)
		for k := 0; k < n; k++ {
			a := make([]float64, n)
			for i := range a {
				a[i] = f(i)
			}
			selectRank(a, k)
			if a[k] != want[k] {
				t.Fatalf("%s: rank %d = %v, want %v", name, k, a[k], want[k])
			}
			for i := range a {
				if (i < k && a[i] > a[k]) || (i > k && a[i] < a[k]) {
					t.Fatalf("%s: rank %d: a[%d] = %v on the wrong side of %v", name, k, i, a[i], a[k])
				}
			}
		}
	}
}

func TestQuantileCI(t *testing.T) {
	l := NewLatencyRecorder(100000)
	r := NewRNG(33)
	e := Exponential{MeanVal: 1}
	for i := 0; i < 100000; i++ {
		l.Add(e.Sample(r))
	}
	est, lo, hi := l.QuantileCI(0.99, 1.96)
	// Analytic p99 of Exp(1) is -ln(0.01) = 4.605.
	want := -math.Log(0.01)
	if math.Abs(est-want)/want > 0.05 {
		t.Fatalf("p99 = %v, want ~%v", est, want)
	}
	if !(lo <= est && est <= hi) {
		t.Fatalf("CI [%v,%v] does not bracket estimate %v", lo, hi, est)
	}
	if !l.RelativeQuantileErrorBelow(0.99, 1.96, 0.05) {
		t.Fatal("100k exponential samples should satisfy BigHouse 5% criterion")
	}
}

func TestQuantileCIEmpty(t *testing.T) {
	l := NewLatencyRecorder(0)
	est, lo, hi := l.QuantileCI(0.99, 1.96)
	if !math.IsNaN(est) || !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatal("empty recorder should return NaN CI")
	}
	if l.RelativeQuantileErrorBelow(0.99, 1.96, 0.05) {
		t.Fatal("empty recorder cannot satisfy error criterion")
	}
}

func TestBinomialPMFSanity(t *testing.T) {
	// Sum over all k must be 1.
	for _, n := range []int{1, 8, 32, 100} {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += BinomialPMF(n, p, k)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("PMF(n=%d,p=%v) sums to %v", n, p, sum)
			}
		}
	}
	// Known value: Binomial(4, 0.5) at k=2 is 6/16.
	if got := BinomialPMF(4, 0.5, 2); math.Abs(got-0.375) > 1e-12 {
		t.Fatalf("PMF(4,0.5,2) = %v", got)
	}
	if BinomialPMF(4, 0.5, -1) != 0 || BinomialPMF(4, 0.5, 5) != 0 {
		t.Fatal("out-of-range k should have zero mass")
	}
	if BinomialPMF(4, 0, 0) != 1 || BinomialPMF(4, 1, 4) != 1 {
		t.Fatal("degenerate p should concentrate mass")
	}
}

func TestBinomialTail(t *testing.T) {
	if got := BinomialTail(10, 0.5, 0); got != 1 {
		t.Fatalf("tail k=0 = %v", got)
	}
	if got := BinomialTail(10, 0.5, 11); got != 0 {
		t.Fatalf("tail k>n = %v", got)
	}
	// P(X>=5) for Binomial(10,0.5) = 0.623046875.
	if got := BinomialTail(10, 0.5, 5); math.Abs(got-0.623046875) > 1e-9 {
		t.Fatalf("tail = %v", got)
	}
}

// Property check against Monte-Carlo: the paper's Fig 2(b) numbers.
// With threads stalled 10% of the time, 11 virtual contexts keep 8
// physical contexts busy ~90% of the time.
func TestBinomialTailPaperNumbers(t *testing.T) {
	if got := BinomialTail(11, 0.9, 8); got < 0.88 || got > 0.99 {
		t.Fatalf("P(>=8 ready | n=11, p_ready=0.9) = %v, want ~0.9+", got)
	}
	// With 50% stall probability, 21 virtual contexts are needed.
	if got := BinomialTail(21, 0.5, 8); got < 0.85 {
		t.Fatalf("P(>=8 ready | n=21, p_ready=0.5) = %v, want >=0.85", got)
	}
	if got := BinomialTail(16, 0.5, 8); got > 0.75 {
		t.Fatalf("P(>=8 ready | n=16, p_ready=0.5) = %v, should be clearly below target", got)
	}
}

func TestBinomialTailMonteCarlo(t *testing.T) {
	r := NewRNG(77)
	const n, trials = 21, 200000
	p := 0.5
	hits := 0
	for i := 0; i < trials; i++ {
		ready := 0
		for j := 0; j < n; j++ {
			if r.Bernoulli(p) {
				ready++
			}
		}
		if ready >= 8 {
			hits++
		}
	}
	mc := float64(hits) / trials
	an := BinomialTail(n, p, 8)
	if math.Abs(mc-an) > 0.01 {
		t.Fatalf("Monte-Carlo %v vs analytic %v", mc, an)
	}
}

// TestLatencyRecorderQuantileGrid checks Quantile below any window, where
// it reads rank i by selection and rank i+1 by a scan, over many sizes
// and a fine grid of q, for continuous and heavily tied input.
func TestLatencyRecorderQuantileGrid(t *testing.T) {
	rng := NewRNG(11)
	for n := 1; n <= 400; n += 3 {
		for _, tied := range []bool{false, true} {
			l := NewLatencyRecorder(n)
			ref := make([]float64, n)
			for i := range ref {
				x := rng.ExpFloat64()
				if tied {
					x = float64(rng.Intn(4))
				}
				ref[i] = x
				l.Add(x)
			}
			sort.Float64s(ref)
			for q := 0.0; q <= 1; q += 0.01 {
				if got, want := l.Quantile(q), Quantile(ref, q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d tied=%v: q%.2f = %v, want %v", n, tied, q, got, want)
				}
			}
		}
	}
}
