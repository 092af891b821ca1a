package stats

import (
	"fmt"
	"math"
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
