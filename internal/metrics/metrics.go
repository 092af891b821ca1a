// Package metrics holds the aggregates the figure tables report:
// geometric and arithmetic means of normalized results.
package metrics

import (
	"fmt"
	"math"
)

// GeoMean returns the geometric mean of positive values — the standard
// aggregate for normalized performance ratios.
func GeoMean(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, fmt.Errorf("metrics: geomean of nothing")
	}
	s := 0.0
	for i, v := range values {
		if v <= 0 {
			return 0, fmt.Errorf("metrics: geomean needs positive values (got %v at %d)", v, i)
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(values))), nil
}

// Mean returns the arithmetic mean.
func Mean(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, fmt.Errorf("metrics: mean of nothing")
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values)), nil
}
