package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean = %v, want 2", got)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Fatal("empty geomean accepted")
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Fatal("negative value accepted")
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("mean = %v", got)
	}
	if _, err := Mean(nil); err == nil {
		t.Fatal("empty mean accepted")
	}
}

// Property: geomean <= arithmetic mean (AM-GM), and both lie within the
// value range.
func TestAMGMProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := raw[:0]
		for _, v := range raw {
			if v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) && v < 1e100 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		gm, err1 := GeoMean(vals)
		am, err2 := Mean(vals)
		if err1 != nil || err2 != nil {
			return false
		}
		return gm <= am*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
