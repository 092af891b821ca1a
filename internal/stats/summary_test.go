package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

// Property: merging two summaries equals summarizing the concatenation.
func TestSummaryMergeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(in []float64) []float64 {
			out := in[:0]
			for _, v := range in {
				if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e8 {
					out = append(out, v)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var sa, sb, all Summary
		for _, v := range a {
			sa.Add(v)
			all.Add(v)
		}
		for _, v := range b {
			sb.Add(v)
			all.Add(v)
		}
		sa.Merge(&sb)
		if sa.Count() != all.Count() {
			return false
		}
		if all.Count() == 0 {
			return true
		}
		tol := 1e-6 * (1 + math.Abs(all.Mean()))
		if math.Abs(sa.Mean()-all.Mean()) > tol {
			return false
		}
		vtol := 1e-5 * (1 + all.Variance())
		return math.Abs(sa.Variance()-all.Variance()) <= vtol &&
			sa.Min() == all.Min() && sa.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileBasics(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Quantile(data, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(data, 1); got != 10 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(data, 0.5); got != 5.5 {
		t.Fatalf("median = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("quantile of empty slice should be NaN")
	}
}

// Property: quantile is monotone in q and bounded by extremes.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1f, q2f uint16) bool {
		data := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				data = append(data, v)
			}
		}
		if len(data) == 0 {
			return true
		}
		sort.Float64s(data)
		q1 := float64(q1f) / 65535
		q2 := float64(q2f) / 65535
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1 := Quantile(data, q1)
		v2 := Quantile(data, q2)
		return v1 <= v2 && v1 >= data[0] && v2 <= data[len(data)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
