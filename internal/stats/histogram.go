package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram accumulates time-weighted occupancy per discrete bin. The
// frequency-residency study of Figure 8 ("percentage of time at each
// frequency") is a Histogram keyed by frequency setting.
type Histogram struct {
	weights map[float64]float64
	total   float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{weights: make(map[float64]float64)}
}

// Add accumulates weight (typically seconds of residency) into the bin.
// Negative weights are rejected — residency cannot be negative.
func (h *Histogram) Add(bin, weight float64) error {
	if weight < 0 {
		return fmt.Errorf("stats: histogram weight %v must be non-negative", weight)
	}
	h.weights[bin] += weight
	h.total += weight
	return nil
}

// MustAdd is Add for callers with weights known non-negative; it panics on
// error.
func (h *Histogram) MustAdd(bin, weight float64) {
	if err := h.Add(bin, weight); err != nil {
		panic(err)
	}
}

// Fraction returns the bin's share of the total weight in [0,1], or 0 when
// the histogram is empty.
func (h *Histogram) Fraction(bin float64) float64 {
	if h.total == 0 {
		return 0
	}
	return h.weights[bin] / h.total
}

// Bins returns the occupied bins in ascending order.
func (h *Histogram) Bins() []float64 {
	bins := make([]float64, 0, len(h.weights))
	for b := range h.weights {
		bins = append(bins, b)
	}
	sort.Float64s(bins)
	return bins
}

// Fractions returns every occupied bin with its share, ascending by bin.
func (h *Histogram) Fractions() ([]float64, []float64) {
	bins := h.Bins()
	fracs := make([]float64, len(bins))
	for i, b := range bins {
		fracs[i] = h.Fraction(b)
	}
	return bins, fracs
}

// BucketHistogram is a fixed-bucket histogram in the Prometheus style:
// ascending upper bounds declared up front, an implicit +Inf overflow
// bucket, and a running sum/count. Unlike Histogram (which bins exact
// values, e.g. the discrete frequency settings of Figure 8) it is meant
// for continuous quantities such as prediction error or per-step loss.
// It is not safe for concurrent use; callers wanting shared access wrap
// it in a lock (internal/obs does).
type BucketHistogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf overflow bucket
	sum    float64
	n      uint64
}

// NewBucketHistogram builds a histogram over strictly ascending upper
// bounds. At least one bound is required.
func NewBucketHistogram(bounds ...float64) (*BucketHistogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("stats: bucket histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("stats: bucket bounds not ascending at %v", bounds[i])
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &BucketHistogram{bounds: b, counts: make([]uint64, len(b)+1)}, nil
}

// MustBucketHistogram is NewBucketHistogram for literal bound lists; it
// panics on error.
func MustBucketHistogram(bounds ...float64) *BucketHistogram {
	h, err := NewBucketHistogram(bounds...)
	if err != nil {
		panic(err)
	}
	return h
}

// Observe records one value into the first bucket whose bound is ≥ v (the
// overflow bucket when none is).
func (h *BucketHistogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *BucketHistogram) Count() uint64 { return h.n }

// Sum returns the sum of all observed values.
func (h *BucketHistogram) Sum() float64 { return h.sum }

// Quantile returns the p-quantile (p in [0,1]) of the observed
// distribution, interpolated linearly within the owning bucket under the
// usual assumption that observations are uniform inside a bucket (the
// histogram_quantile convention). The first bucket's lower edge is 0 for
// non-negative data (min(0, bounds[0]) otherwise) and any quantile that
// lands in the +Inf overflow bucket collapses to the highest finite
// bound — the histogram cannot resolve beyond it. Quantile is monotone
// non-decreasing in p. It returns NaN on an empty histogram and panics
// on p outside [0,1].
func (h *BucketHistogram) Quantile(p float64) float64 {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", p))
	}
	if h.n == 0 {
		return math.NaN()
	}
	target := p * float64(h.n)
	lower := math.Min(0, h.bounds[0])
	var cum uint64
	for i, b := range h.bounds {
		c := h.counts[i]
		if float64(cum+c) >= target {
			if c == 0 {
				return b
			}
			frac := (target - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (b-lower)*frac
		}
		cum += c
		lower = b
	}
	return h.bounds[len(h.bounds)-1]
}

// Cumulative returns the cumulative count at each finite bound, i.e. the
// Prometheus `le` series without the +Inf entry (which equals Count).
func (h *BucketHistogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.bounds))
	var run uint64
	for i := range h.bounds {
		run += h.counts[i]
		out[i] = run
	}
	return out
}
