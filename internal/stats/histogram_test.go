package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestBucketHistogramValidation(t *testing.T) {
	if _, err := NewBucketHistogram(); err == nil {
		t.Error("empty bound list accepted")
	}
	if _, err := NewBucketHistogram(1, 1); err == nil {
		t.Error("non-ascending bounds accepted")
	}
	if _, err := NewBucketHistogram(2, 1); err == nil {
		t.Error("descending bounds accepted")
	}
}

func TestBucketHistogramObserve(t *testing.T) {
	h := MustBucketHistogram(0.01, 0.05, 0.25)
	for _, v := range []float64{0.005, 0.01, 0.02, 0.1, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.01+0.02+0.1+0.5+2; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Values at a bound land in that bound's bucket (le semantics).
	cum := h.Cumulative()
	if cum[0] != 2 || cum[1] != 3 || cum[2] != 4 {
		t.Errorf("cumulative = %v", cum)
	}
	if got := h.bounds; len(got) != 3 || got[0] != 0.01 {
		t.Errorf("bounds = %v", got)
	}
}

func TestBucketHistogramOverflowOnly(t *testing.T) {
	h := MustBucketHistogram(1)
	h.Observe(10)
	if cum := h.Cumulative(); cum[0] != 0 {
		t.Errorf("cumulative = %v", cum)
	}
	if h.Count() != 1 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestBucketHistogramQuantile(t *testing.T) {
	h := MustBucketHistogram(10, 20, 40)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Errorf("empty quantile = %v, want NaN", h.Quantile(0.5))
	}
	// 10 observations in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %v, want 10 (exact bucket edge)", got)
	}
	// p25 → halfway through the first bucket [0,10].
	if got := h.Quantile(0.25); got != 5 {
		t.Errorf("p25 = %v, want 5", got)
	}
	// p75 → halfway through the second bucket (10,20].
	if got := h.Quantile(0.75); got != 15 {
		t.Errorf("p75 = %v, want 15", got)
	}
	if got := h.Quantile(1); got != 20 {
		t.Errorf("p100 = %v, want 20", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %v, want 0 (lower edge)", got)
	}
}

func TestBucketHistogramQuantileOverflow(t *testing.T) {
	h := MustBucketHistogram(1, 2)
	h.Observe(0.5)
	h.Observe(100) // overflow bucket
	// Quantiles landing in +Inf collapse to the highest finite bound.
	if got := h.Quantile(1); got != 2 {
		t.Errorf("p100 = %v, want 2", got)
	}
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("p99 = %v, want 2", got)
	}
}

func TestBucketHistogramQuantileMonotone(t *testing.T) {
	h := MustBucketHistogram(0.001, 0.01, 0.1, 1, 10)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		h.Observe(math.Exp(rng.NormFloat64()*3 - 3))
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0001; p += 0.001 {
		q := h.Quantile(math.Min(p, 1))
		if q < prev {
			t.Fatalf("quantile not monotone: q(%v) = %v < %v", p, q, prev)
		}
		prev = q
	}
}

func TestBucketHistogramQuantilePanics(t *testing.T) {
	h := MustBucketHistogram(1)
	defer func() {
		if recover() == nil {
			t.Errorf("Quantile(1.5) did not panic")
		}
	}()
	h.Quantile(1.5)
}
