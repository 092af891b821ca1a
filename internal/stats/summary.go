package stats

import "math"

// Summary accumulates streaming first/second-moment statistics using
// Welford's algorithm, plus extrema. The zero value is ready to use.
type Summary struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() uint64 { return s.n }

// Mean returns the sample mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 if n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 if empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// CV returns the coefficient of variation (stddev/mean), or 0 if mean is 0.
func (s *Summary) CV() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.StdDev() / s.mean
}

// Merge folds other into s, as if every observation of other had been
// Added to s (Chan et al. parallel variance combination).
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	d := other.mean - s.mean
	n := s.n + other.n
	s.m2 += other.m2 + d*d*float64(s.n)*float64(other.n)/float64(n)
	s.mean += d * float64(other.n) / float64(n)
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n = n
}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted (ascending)
// samples using linear interpolation between order statistics. If samples
// is unsorted the result is undefined.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i, frac, interp := quantileRank(len(sorted), q)
	if !interp {
		return sorted[i]
	}
	return lerp(sorted[i], sorted[i+1], frac)
}

// quantileRank locates the q-quantile among n > 0 ascending values: it
// is the value at rank i alone when interp is false, and otherwise
// lerp(rank i, rank i+1, frac).
func quantileRank(n int, q float64) (i int, frac float64, interp bool) {
	if q <= 0 {
		return 0, 0, false
	}
	if q >= 1 {
		return n - 1, 0, false
	}
	pos := q * float64(n-1)
	i = int(pos)
	if i+1 >= n {
		return n - 1, 0, false
	}
	return i, pos - float64(i), true
}

// lerp interpolates linearly between adjacent order statistics a and b.
func lerp(a, b, frac float64) float64 { return a*(1-frac) + b*frac }
