package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
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

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	h.MustAdd(600, 2)
	h.MustAdd(1000, 6)
	h.MustAdd(600, 2)
	if h.total != 10 {
		t.Errorf("total = %v", h.total)
	}
	if got := h.Fraction(600); !almostEqual(got, 0.4, 1e-12) {
		t.Errorf("Fraction(600) = %v, want 0.4", got)
	}
	if got := h.weights[1000]; got != 6 {
		t.Errorf("weight of bin 1000 = %v", got)
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
