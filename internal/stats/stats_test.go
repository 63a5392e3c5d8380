package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// variance is the batch population variance of xs, the reference the
// streaming accumulator is checked against.
func variance(xs []float64) float64 {
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if got := w.Variance(); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := w.StdDev(); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestEmptyInputsYieldNaN(t *testing.T) {
	for name, got := range map[string]float64{
		"Mean":       Mean(nil),
		"Percentile": Percentile(nil, 50),
		"Min":        Min(nil),
		"Max":        Max(nil),
	} {
		if !math.IsNaN(got) {
			t.Errorf("%s(empty) = %v, want NaN", name, got)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 25); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Percentile(25) = %v, want 2.5", got)
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on p=101")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	xs := []float64{1.5, 2.5, 2.5, 9.0, -3.0, 0.25}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Errorf("N = %d", w.N())
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-12) {
		t.Errorf("Welford mean %v vs batch %v", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), variance(xs), 1e-9) {
		t.Errorf("Welford variance %v vs batch %v", w.Variance(), variance(xs))
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Variance()) {
		t.Error("empty Welford should report NaN")
	}
}

func TestWelfordAgreesWithBatchProperty(t *testing.T) {
	err := quick.Check(func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var w Welford
		for i, r := range raw {
			xs[i] = float64(r) / 7
			w.Add(xs[i])
		}
		return almostEqual(w.Mean(), Mean(xs), 1e-9) &&
			almostEqual(w.Variance(), variance(xs), 1e-6)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	h.MustAdd(600, 2)
	h.MustAdd(1000, 6)
	h.MustAdd(600, 2)
	if h.Total() != 10 {
		t.Errorf("Total = %v", h.Total())
	}
	if got := h.Fraction(600); !almostEqual(got, 0.4, 1e-12) {
		t.Errorf("Fraction(600) = %v, want 0.4", got)
	}
	if got := h.Weight(1000); got != 6 {
		t.Errorf("Weight(1000) = %v", got)
	}
	bins := h.Bins()
	if len(bins) != 2 || bins[0] != 600 || bins[1] != 1000 {
		t.Errorf("Bins = %v", bins)
	}
}

func TestHistogramRejectsNegativeWeight(t *testing.T) {
	h := NewHistogram()
	if err := h.Add(1, -0.5); err == nil {
		t.Error("want error for negative weight")
	}
}

func TestHistogramEmptyFraction(t *testing.T) {
	h := NewHistogram()
	if got := h.Fraction(5); got != 0 {
		t.Errorf("empty Fraction = %v, want 0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.MustAdd(1, 1)
	b.MustAdd(1, 1)
	b.MustAdd(2, 2)
	a.Merge(b)
	if a.Total() != 4 || a.Weight(1) != 2 || a.Weight(2) != 2 {
		t.Errorf("after Merge: total=%v w1=%v w2=%v", a.Total(), a.Weight(1), a.Weight(2))
	}
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	err := quick.Check(func(ws []uint8) bool {
		h := NewHistogram()
		any := false
		for i, w := range ws {
			if w == 0 {
				continue
			}
			any = true
			h.MustAdd(float64(i%4), float64(w))
		}
		if !any {
			return true
		}
		_, fracs := h.Fractions()
		sum := 0.0
		for _, f := range fracs {
			sum += f
		}
		return almostEqual(sum, 1, 1e-9)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
