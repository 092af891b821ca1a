package telemetry

import "math/bits"

// NumBuckets is the fixed bucket count of a Histogram: bucket 0 holds
// exact zeros and bucket k (1 ≤ k ≤ 64) holds values in [2^(k-1), 2^k).
const NumBuckets = 65

// Histogram is a fixed-size log-scaled histogram with power-of-two
// bucket boundaries. Observations are uint64 (cycle counts, latencies in
// ns, byte sizes, ...). Histograms are mergeable: two histograms of the
// same quantity can be summed bucket-wise, so per-shard histograms
// aggregate exactly.
//
// Like Counter, Observe is unsynchronized (single-goroutine simulator).
type Histogram struct {
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [NumBuckets]uint64
}

// bucketIndex returns the bucket for v: 0 for v == 0, else
// bits.Len64(v), i.e. v ∈ [2^(k-1), 2^k) lands in bucket k.
func bucketIndex(v uint64) int { return bits.Len64(v) }

// BucketBounds returns bucket i's half-open value range [lo, hi).
// Bucket 0 is [0, 1); bucket 64's upper bound saturates at MaxUint64.
func BucketBounds(i int) (lo, hi uint64) {
	if i <= 0 {
		return 0, 1
	}
	lo = uint64(1) << (i - 1)
	if i >= 64 {
		return lo, ^uint64(0)
	}
	return lo, uint64(1) << i
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
}

// Merge adds o's observations into h. Min/max and the bucket-wise sums
// merge exactly; h is unchanged when o is nil or empty.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the smallest observed value (0 if empty).
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed value (0 if empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean of observations (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1): the
// upper bound of the bucket containing the ceil(q*count)-th observation,
// clamped to the observed max. Resolution is one power of two.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			_, hi := BucketBounds(i)
			if hi > h.max {
				return h.max
			}
			return hi
		}
	}
	return h.max
}

// BucketCount is one non-empty bucket of a histogram snapshot.
type BucketCount struct {
	// Lo and Hi bound the bucket's half-open value range [Lo, Hi).
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is an encodable point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Min     uint64        `json:"min"`
	Max     uint64        `json:"max"`
	Mean    float64       `json:"mean"`
	P50     uint64        `json:"p50"`
	P95     uint64        `json:"p95"`
	P99     uint64        `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state, keeping only non-empty
// buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count, Sum: h.sum, Min: h.Min(), Max: h.max,
		Mean: h.Mean(),
		P50:  h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		s.Buckets = append(s.Buckets, BucketCount{Lo: lo, Hi: hi, Count: c})
	}
	return s
}
