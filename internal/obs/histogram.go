package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram is a lock-free log-bucketed distribution metric for nonnegative
// values (virtual seconds, byte counts, list lengths). Like Counter and
// Gauge it is safe for concurrent writers and order-independent: Observe
// only performs atomic adds and monotone CAS folds, so a snapshot never
// depends on host scheduling, and all methods are no-ops on a nil receiver.
// Construct with NewHistogram (or through Registry.Histogram), which seeds
// the min/max sentinels.
//
// Buckets are logarithmic: histSub sub-buckets per power of two, spanning
// 2^histMinExp .. 2^histMaxExp, plus a dedicated bucket for zero (and any
// negative or NaN input, which is clamped there). Quantiles are answered
// from bucket midpoints clamped into [Min, Max], so their relative error is
// bounded by the sub-bucket width (about 1/(2*histSub) ~ 6%).
const (
	histMinExp = -64 // smallest resolved magnitude, 2^-64 ~ 5.4e-20
	histMaxExp = 64  // largest resolved magnitude, 2^64 ~ 1.8e19
	histSub    = 8   // sub-buckets per octave
	// Bucket 0 holds zero/negative/NaN values; the last bucket holds
	// overflow beyond 2^histMaxExp.
	histBuckets = (histMaxExp-histMinExp)*histSub + 2
)

// Histogram accumulates a value distribution.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-add like Gauge
	min     atomic.Uint64 // float64 bits, seeded +Inf
	max     atomic.Uint64 // float64 bits, seeded -Inf
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram ready for concurrent Observe.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	oct := exp - 1 - histMinExp
	if oct < 0 {
		return 0
	}
	if oct >= histMaxExp-histMinExp {
		return histBuckets - 1
	}
	sub := int((frac - 0.5) * 2 * histSub) // [0, histSub)
	if sub >= histSub {
		sub = histSub - 1
	}
	return 1 + oct*histSub + sub
}

// bucketMid returns the representative value of a bucket (arithmetic
// midpoint of its range; 0 for the zero bucket).
func bucketMid(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= histBuckets-1 {
		return math.Ldexp(1, histMaxExp)
	}
	i--
	oct, sub := i/histSub, i%histSub
	width := math.Ldexp(1.0/histSub, oct+histMinExp) // octave span / histSub
	lo := math.Ldexp(0.5+float64(sub)/(2*histSub), oct+histMinExp+1)
	return lo + width/2
}

// Observe folds one value into the distribution.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	if math.IsNaN(v) {
		v = 0
	}
	for {
		old := h.sum.Load()
		nv := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(nv)) {
			break
		}
	}
	h.foldMin(v)
	h.foldMax(v)
}

func (h *Histogram) foldMin(v float64) {
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if h.min.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (h *Histogram) foldMax(v float64) {
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns Sum/Count, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if c := h.Count(); c > 0 {
		return h.Sum() / float64(c)
	}
	return 0
}

// Min returns the smallest observed value, or 0 with no observations.
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the largest observed value, or 0 with no observations.
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile returns an estimate of the p-quantile (p in [0,1]) from the
// bucket midpoints, exact at the extremes: Quantile(0) = Min and
// Quantile(1) = Max. Returns 0 with no observations.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p >= 1 {
		return h.Max()
	}
	rank := int64(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			// Clamp the midpoint estimate into the observed range so tiny
			// histograms (single bucket, single sample) answer exactly.
			v := bucketMid(i)
			if mn := h.Min(); v < mn {
				v = mn
			}
			if mx := h.Max(); v > mx {
				v = mx
			}
			return v
		}
	}
	return h.Max()
}

// Quantiles returns estimates for each p in ps (see Quantile). Nil-safe:
// on a nil or empty histogram every entry is 0. The live sampler and the
// analysis path share this implementation so both report the same numbers.
func (h *Histogram) Quantiles(ps []float64) []float64 {
	out := make([]float64, len(ps))
	h.QuantilesInto(ps, out)
	return out
}

// QuantilesInto writes the estimate for each ps[i] into out[i] without
// allocating (out must be at least as long as ps). When ps is nondecreasing
// — the common case, e.g. {0.5, 0.95, 0.99} — all quantiles are answered in
// one cumulative pass over the buckets; unsorted ps fall back to per-entry
// scans. Results for nondecreasing ps are themselves nondecreasing.
func (h *Histogram) QuantilesInto(ps, out []float64) {
	if h == nil || h.Count() == 0 {
		for i := range ps {
			out[i] = 0
		}
		return
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] {
			for j := range ps {
				out[j] = h.Quantile(ps[j])
			}
			return
		}
	}
	n := h.count.Load()
	mn, mx := h.Min(), h.Max()
	clamp := func(v float64) float64 {
		if v < mn {
			return mn
		}
		if v > mx {
			return mx
		}
		return v
	}
	k := 0
	for k < len(ps) && ps[k] <= 0 {
		out[k] = mn
		k++
	}
	var cum int64
	for i := 0; i < histBuckets && k < len(ps); i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		for k < len(ps) && ps[k] < 1 {
			rank := int64(math.Ceil(ps[k] * float64(n)))
			if rank < 1 {
				rank = 1
			}
			if cum < rank {
				break
			}
			out[k] = clamp(bucketMid(i))
			k++
		}
	}
	for ; k < len(ps); k++ {
		out[k] = mx
	}
}

// Merge folds other's observations into h. Nil-safe on both sides and a
// no-op when other is empty. Concurrent observers on either side land
// before or after the merge (order-independence holds; point-in-time
// atomicity across the two histograms is not promised).
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil || other.Count() == 0 {
		return
	}
	for i := 0; i < histBuckets; i++ {
		if c := other.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	s := other.Sum()
	for {
		old := h.sum.Load()
		nv := math.Float64frombits(old) + s
		if h.sum.CompareAndSwap(old, math.Float64bits(nv)) {
			break
		}
	}
	h.foldMin(other.Min())
	h.foldMax(other.Max())
}

// HistogramSnapshot is the JSON shape of one histogram in a metrics dump.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Validate checks the internal ordering of one histogram summary:
// nonnegative count and, when populated, min <= p50 <= p95 <= p99 <= max.
func (h HistogramSnapshot) Validate() error {
	if h.Count < 0 || h.Count > 0 && !(h.Min <= h.P50 && h.P50 <= h.P95 && h.P95 <= h.P99 && h.P99 <= h.Max) {
		return fmt.Errorf("inconsistent summary %+v", h)
	}
	return nil
}

// Snapshot summarizes the distribution.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var q [3]float64
	h.QuantilesInto([]float64{0.50, 0.95, 0.99}, q[:])
	return HistogramSnapshot{
		Count: h.Count(), Sum: h.Sum(),
		Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
		P50: q[0], P95: q[1], P99: q[2],
	}
}
