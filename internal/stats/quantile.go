package stats

import (
	"math"
	"math/bits"
	"sort"
)

// LatencyRecorder collects latency observations and answers quantile
// queries. It keeps every sample (request-granularity simulations in this
// repository produce at most a few million observations), which makes
// quantiles exact — important for 99th-percentile comparisons. Every
// answer is the order statistic a full sort would give, interpolated by
// the same expression as Quantile. Observations must not be NaN.
//
// No query sorts all samples. The recorder keeps a tracked upper window:
// a cut value, the count of observations below it, and the observations
// at or above it in ascending order. QuantileCI moves the cut (one
// quickselect over all samples, one scan, and a sort of the window) only
// when its lowest needed rank falls below the window or the window grows
// far past what the query needs; a BigHouse-style convergence check
// around the 99th percentile therefore sorts ~2% of the samples once and
// afterwards only the window's new arrivals. A rank below the window
// (P50, P95) costs one O(n) selection.
type LatencyRecorder struct {
	obs  []float64 // every observation; queries reorder it in place
	seen int       // obs[:seen] are accounted in below/win
	sum  float64   // accumulated in Add order

	cut    float64   // the window holds every accounted observation >= cut
	below  int       // accounted observations < cut
	win    []float64 // ascending
	cutWin int       // len(win) right after the last re-cut
	fresh  []float64 // scratch: new window arrivals of one query
}

// NewLatencyRecorder returns a recorder with capacity hint n.
func NewLatencyRecorder(n int) *LatencyRecorder {
	return &LatencyRecorder{obs: make([]float64, 0, n), cut: math.Inf(1)}
}

// Add records one latency observation.
func (l *LatencyRecorder) Add(x float64) {
	l.obs = append(l.obs, x)
	l.sum += x
}

// Count returns the number of observations.
func (l *LatencyRecorder) Count() int { return len(l.obs) }

// Mean returns the mean latency (NaN if empty).
func (l *LatencyRecorder) Mean() float64 {
	if l.Count() == 0 {
		return math.NaN()
	}
	return l.sum / float64(l.Count())
}

// sync accounts the observations added since the last query: those below
// the cut are counted, those at or above it are sorted and merged into
// the window backwards in place (largest first), so the merge needs no
// scratch beyond the new arrivals and never moves an element twice.
func (l *LatencyRecorder) sync() {
	fresh := l.fresh[:0]
	for _, x := range l.obs[l.seen:] {
		if x >= l.cut {
			fresh = append(fresh, x)
		} else {
			l.below++
		}
	}
	l.seen = len(l.obs)
	l.fresh = fresh[:0]
	if len(fresh) == 0 {
		return
	}
	sort.Float64s(fresh)
	n, t := len(l.win), len(fresh)
	l.win = append(l.win, fresh...)
	for i, j, k := n-1, t-1, n+t-1; j >= 0; k-- {
		if i >= 0 && l.win[i] > fresh[j] {
			l.win[k] = l.win[i]
			i--
		} else {
			l.win[k] = fresh[j]
			j--
		}
	}
}

// track makes the window hold rank need (0-based, ascending) and not far
// more. A re-cut places the cut at rank need-(n-need), so the window is
// about twice what a query at rank need reads. It is re-cut again when
// the window has grown to four times that, as a rising (non-stationary)
// stream makes it, and to twice its size at the last re-cut; the second
// condition keeps ties at the cut, which the window must hold, from
// forcing a re-cut at every query.
func (l *LatencyRecorder) track(need int) {
	l.sync()
	n := len(l.obs)
	if need >= l.below && (len(l.win) <= 4*(n-need) || len(l.win) <= 2*l.cutWin) {
		return
	}
	r := max(2*need-n, 0)
	selectRank(l.obs, r)
	l.cut = l.obs[r]
	l.win = l.win[:0]
	for _, x := range l.obs {
		if x >= l.cut {
			l.win = append(l.win, x)
		}
	}
	l.below = n - len(l.win)
	l.cutWin = len(l.win)
	sort.Float64s(l.win)
}

// rank returns the k-th smallest accounted observation. The caller has
// synced, so obs holds exactly the accounted observations.
func (l *LatencyRecorder) rank(k int) float64 {
	if k >= l.below {
		return l.win[k-l.below]
	}
	selectRank(l.obs, k)
	return l.obs[k]
}

// quantile reads the q-quantile of the synced observations.
func (l *LatencyRecorder) quantile(q float64) float64 {
	i, frac, interp := quantileRank(len(l.obs), q)
	a := l.rank(i)
	if !interp {
		return a
	}
	if i+1 >= l.below {
		return lerp(a, l.win[i+1-l.below], frac)
	}
	// rank left obs[i+1:] holding exactly the values at ranks above i.
	b := l.obs[i+1]
	for _, x := range l.obs[i+2:] {
		if x < b {
			b = x
		}
	}
	return lerp(a, b, frac)
}

// Quantile returns the q-quantile of the recorded samples.
func (l *LatencyRecorder) Quantile(q float64) float64 {
	if len(l.obs) == 0 {
		return math.NaN()
	}
	l.sync()
	return l.quantile(q)
}

// P99 returns the 99th percentile, the paper's headline tail metric.
func (l *LatencyRecorder) P99() float64 { return l.Quantile(0.99) }

// QuantileCI estimates a confidence interval for the q-quantile using the
// binomial order-statistic method at confidence z (e.g. 1.96 for 95%).
// It returns the point estimate and the interval bounds.
func (l *LatencyRecorder) QuantileCI(q, z float64) (est, lo, hi float64) {
	n := len(l.obs)
	if n == 0 {
		nan := math.NaN()
		return nan, nan, nan
	}
	// Order-statistic indices: q*n +/- z*sqrt(n*q*(1-q)).
	sd := z * math.Sqrt(float64(n)*q*(1-q))
	loIdx := int(math.Floor(q*float64(n) - sd))
	hiIdx := int(math.Ceil(q*float64(n) + sd))
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx > n-1 {
		hiIdx = n - 1
	}
	i, _, _ := quantileRank(n, q)
	l.track(min(loIdx, i))
	return l.quantile(q), l.rank(loIdx), l.rank(hiIdx)
}

// RelativeQuantileErrorBelow reports whether the q-quantile's confidence
// interval half-width is within frac of the estimate — the BigHouse
// stopping criterion (95% CI within 5%).
func (l *LatencyRecorder) RelativeQuantileErrorBelow(q, z, frac float64) bool {
	est, lo, hi := l.QuantileCI(q, z)
	if math.IsNaN(est) || est == 0 {
		return false
	}
	return (hi-lo)/2/est < frac
}

// Reset discards all recorded samples but keeps capacity.
func (l *LatencyRecorder) Reset() {
	l.obs = l.obs[:0]
	l.seen = 0
	l.sum = 0
	l.cut = math.Inf(1)
	l.below = 0
	l.win = l.win[:0]
	l.cutWin = 0
}

// Samples returns the recorded observations in ascending order. It sorts
// them in place; the slice shares the recorder's backing array, so do not
// mutate it, and it is valid only until the next Add or query.
func (l *LatencyRecorder) Samples() []float64 {
	l.sync()
	sort.Float64s(l.obs)
	return l.obs
}

// selectRank reorders a in place so that a[k] holds the value a full sort
// would put there, with a[:k] <= a[k] <= a[k+1:]. It is Hoare's
// quickselect with a median-of-3 pivot, which splits sorted, reversed and
// all-equal input evenly; small ranges, and the rare range that keeps
// splitting badly, are finished by sorting.
func selectRank(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for budget := 3 * bits.Len(uint(len(a))); hi-lo > 16 && budget > 0; budget-- {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		p := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo:j+1] <= p <= a[i:hi+1], and a[j+1:i] == p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	sort.Float64s(a[lo : hi+1])
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p), computed in log
// space for numerical stability at large n.
func BinomialPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := lnChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lg)
}

// BinomialTail returns P(X >= k) for X ~ Binomial(n, p). The paper's
// Figure 2(b) plots this for k=8 as the probability that at least 8
// virtual contexts are ready.
func BinomialTail(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	sum := 0.0
	for i := k; i <= n; i++ {
		sum += BinomialPMF(n, p, i)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// lnChoose returns ln(n choose k) via the log-gamma function.
func lnChoose(n, k int) float64 {
	return lnGamma(float64(n)+1) - lnGamma(float64(k)+1) - lnGamma(float64(n-k)+1)
}

// lnGamma is a Lanczos approximation of the log-gamma function, sufficient
// for binomial coefficients (relative error ~1e-13).
func lnGamma(x float64) float64 {
	// Coefficients for g=7, n=9 Lanczos.
	g := []float64{
		0.99999999999980993,
		676.5203681218851,
		-1259.1392167224028,
		771.32342877765313,
		-176.61502916214059,
		12.507343278686905,
		-0.13857109526572012,
		9.9843695780195716e-6,
		1.5056327351493116e-7,
	}
	if x < 0.5 {
		// Reflection formula.
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - lnGamma(1-x)
	}
	x--
	a := g[0]
	t := x + 7.5
	for i := 1; i < 9; i++ {
		a += g[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}
