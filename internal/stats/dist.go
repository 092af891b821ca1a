package stats

import (
	"fmt"
	"math"
	"sort"
)

// Distribution is a sampleable probability distribution over non-negative
// real values (latencies, service times, stall durations).
type Distribution interface {
	// Sample draws one variate using the supplied generator.
	Sample(r *RNG) float64
	// Mean returns the distribution's expected value.
	Mean() float64
	// String describes the distribution for logs and table captions.
	String() string
}

// Deterministic is a point mass at Value.
type Deterministic struct{ Value float64 }

// Sample implements Distribution.
func (d Deterministic) Sample(*RNG) float64 { return d.Value }

// Mean implements Distribution.
func (d Deterministic) Mean() float64 { return d.Value }

func (d Deterministic) String() string { return fmt.Sprintf("Det(%g)", d.Value) }

// Exponential is the exponential distribution with the given mean
// (rate = 1/mean). M/G/1 idle periods and RDMA completion latencies in the
// paper are exponential.
type Exponential struct{ MeanVal float64 }

// Sample implements Distribution.
func (e Exponential) Sample(r *RNG) float64 { return e.MeanVal * r.ExpFloat64() }

// Mean implements Distribution.
func (e Exponential) Mean() float64 { return e.MeanVal }

func (e Exponential) String() string { return fmt.Sprintf("Exp(mean=%g)", e.MeanVal) }

// CDF returns P(X <= x).
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-x/e.MeanVal)
}

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Distribution.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean implements Distribution.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("U[%g,%g)", u.Lo, u.Hi) }

// Lognormal is parameterized by the mean and coefficient of variation of
// the resulting (not the underlying normal) distribution. Cloud service
// times are commonly modelled as lognormal with CV around 1-2.
type Lognormal struct {
	MeanVal float64 // mean of the lognormal variate
	CV      float64 // coefficient of variation (stddev/mean)
}

// Prepared returns l as a sampler whose underlying normal's parameters
// are computed once, for loops that draw many variates. It draws the same
// values as l. The parameters live in a separate type, not in Lognormal,
// because cache digests hash Lognormal values field by field.
func (l Lognormal) Prepared() PreparedLognormal {
	// For lognormal: mean = exp(mu + sigma^2/2), CV^2 = exp(sigma^2)-1.
	s2 := math.Log(1 + l.CV*l.CV)
	return PreparedLognormal{l: l, mu: math.Log(l.MeanVal) - s2/2, sigma: math.Sqrt(s2)}
}

// Sample implements Distribution.
func (l Lognormal) Sample(r *RNG) float64 { return l.Prepared().Sample(r) }

// Mean implements Distribution.
func (l Lognormal) Mean() float64 { return l.MeanVal }

func (l Lognormal) String() string {
	return fmt.Sprintf("Lognormal(mean=%g,cv=%g)", l.MeanVal, l.CV)
}

// PreparedLognormal is a Lognormal with its normal parameters (mu, sigma)
// precomputed; see Lognormal.Prepared.
type PreparedLognormal struct {
	l         Lognormal
	mu, sigma float64
}

// Sample implements Distribution.
func (p PreparedLognormal) Sample(r *RNG) float64 {
	return math.Exp(p.mu + p.sigma*r.NormFloat64())
}

// Mean implements Distribution.
func (p PreparedLognormal) Mean() float64 { return p.l.MeanVal }

func (p PreparedLognormal) String() string { return p.l.String() }

// BoundedPareto is a heavy-tailed distribution on [L, H] with shape Alpha.
// The paper notes that cloud service distributions are heavy-tailed; we use
// bounded Pareto for the high-variability workload variants.
type BoundedPareto struct {
	L, H  float64
	Alpha float64
}

// Sample implements Distribution.
func (p BoundedPareto) Sample(r *RNG) float64 {
	u := r.Float64()
	la := math.Pow(p.L, p.Alpha)
	ha := math.Pow(p.H, p.Alpha)
	x := -(u*ha - u*la - ha) / (ha * la)
	return math.Pow(x, -1/p.Alpha)
}

// Mean implements Distribution.
func (p BoundedPareto) Mean() float64 {
	if p.Alpha == 1 {
		return p.L * p.H / (p.H - p.L) * math.Log(p.H/p.L)
	}
	la := math.Pow(p.L, p.Alpha)
	num := la * p.Alpha / (p.Alpha - 1) * (1 - math.Pow(p.L/p.H, p.Alpha-1))
	den := 1 - math.Pow(p.L/p.H, p.Alpha)
	return num / den
}

func (p BoundedPareto) String() string {
	return fmt.Sprintf("BPareto(L=%g,H=%g,a=%g)", p.L, p.H, p.Alpha)
}

// Shifted wraps a distribution and adds a constant offset to every sample,
// modelling a fixed processing component plus a variable one.
type Shifted struct {
	Base  Distribution
	Shift float64
}

// Sample implements Distribution.
func (s Shifted) Sample(r *RNG) float64 { return s.Shift + s.Base.Sample(r) }

// Mean implements Distribution.
func (s Shifted) Mean() float64 { return s.Shift + s.Base.Mean() }

func (s Shifted) String() string { return fmt.Sprintf("%g+%s", s.Shift, s.Base) }

// Scaled multiplies every sample of Base by Factor. The queueing simulator
// uses it to apply IPC-slowdown factors measured in the micro-architecture
// simulation, per the paper's BigHouse methodology.
type Scaled struct {
	Base   Distribution
	Factor float64
}

// Sample implements Distribution.
func (s Scaled) Sample(r *RNG) float64 { return s.Factor * s.Base.Sample(r) }

// Mean implements Distribution.
func (s Scaled) Mean() float64 { return s.Factor * s.Base.Mean() }

func (s Scaled) String() string { return fmt.Sprintf("%g*%s", s.Factor, s.Base) }

// Mixture draws from component i with probability Weights[i].
type Mixture struct {
	Components []Distribution
	Weights    []float64 // must sum to ~1
}

// NewMixture validates and constructs a mixture distribution.
func NewMixture(components []Distribution, weights []float64) (Mixture, error) {
	if len(components) == 0 || len(components) != len(weights) {
		return Mixture{}, fmt.Errorf("stats: mixture needs equal, non-zero components (%d) and weights (%d)", len(components), len(weights))
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 {
			return Mixture{}, fmt.Errorf("stats: negative mixture weight %g", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		return Mixture{}, fmt.Errorf("stats: mixture weights sum to %g, want 1", sum)
	}
	return Mixture{Components: components, Weights: weights}, nil
}

// Sample implements Distribution.
func (m Mixture) Sample(r *RNG) float64 {
	u := r.Float64()
	acc := 0.0
	for i, w := range m.Weights {
		acc += w
		if u < acc {
			return m.Components[i].Sample(r)
		}
	}
	return m.Components[len(m.Components)-1].Sample(r)
}

// Mean implements Distribution.
func (m Mixture) Mean() float64 {
	mean := 0.0
	for i, w := range m.Weights {
		mean += w * m.Components[i].Mean()
	}
	return mean
}

func (m Mixture) String() string { return fmt.Sprintf("Mixture(%d)", len(m.Components)) }

// Empirical samples uniformly from a fixed set of observations,
// reproducing BigHouse's use of measured service-time distributions.
type Empirical struct {
	sorted []float64
	mean   float64
}

// NewEmpirical builds an empirical distribution from observations.
// It copies and sorts the data.
func NewEmpirical(obs []float64) (*Empirical, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("stats: empirical distribution needs at least one observation")
	}
	s := append([]float64(nil), obs...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return &Empirical{sorted: s, mean: sum / float64(len(s))}, nil
}

// Sample implements Distribution, drawing with linear interpolation between
// adjacent order statistics so the support is continuous.
func (e *Empirical) Sample(r *RNG) float64 {
	n := len(e.sorted)
	if n == 1 {
		return e.sorted[0]
	}
	pos := r.Float64() * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	return e.sorted[i]*(1-frac) + e.sorted[i+1]*frac
}

// Mean implements Distribution.
func (e *Empirical) Mean() float64 { return e.mean }

func (e *Empirical) String() string { return fmt.Sprintf("Empirical(n=%d)", len(e.sorted)) }

// Quantile returns the q-quantile (0<=q<=1) of the observations.
func (e *Empirical) Quantile(q float64) float64 { return Quantile(e.sorted, q) }
