package serve

import (
	"math"
	"testing"
)

func TestParseArrivalSpec(t *testing.T) {
	cases := []struct {
		in   string
		want ArrivalSpec
	}{
		{"poisson:30", ArrivalSpec{Kind: "poisson", Rate: 30, CV: 1}},
		{"gamma:30,cv=2", ArrivalSpec{Kind: "gamma", Rate: 30, CV: 2}},
		{"gamma:12.5,cv=0.5,depth=0.8,period=4", ArrivalSpec{Kind: "gamma", Rate: 12.5, CV: 0.5, Depth: 0.8, Period: 4}},
		{"weibull:7,cv=0.5,depth=0.3,period=10,phase=0.25", ArrivalSpec{Kind: "weibull", Rate: 7, CV: 0.5, Depth: 0.3, Period: 10, Phase: 0.25}},
	}
	for _, tc := range cases {
		got, err := ParseArrivalSpec(tc.in)
		if err != nil {
			t.Errorf("parse %q: %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parse %q = %+v, want %+v", tc.in, got, tc.want)
		}
		// Round-trip through the canonical rendering.
		back, err := ParseArrivalSpec(got.String())
		if err != nil || back != got {
			t.Errorf("round-trip %q → %q → %+v (%v)", tc.in, got.String(), back, err)
		}
	}
}

func TestParseArrivalSpecRejects(t *testing.T) {
	bad := []string{
		"", "poisson", "poisson:", "poisson:0", "poisson:-3", "poisson:nan",
		"poisson:inf", "poisson:1e300,depth=0.5,period=1e300",
		"uniform:3", "poisson:30,cv=2", "gamma:30,cv=0", "gamma:30,cv=99",
		"gamma:30,depth=2,period=4", "gamma:30,depth=0.5", // missing period
		"gamma:30,period=4", // period without depth
		"gamma:30,phase=0.5", "gamma:30,depth=0.5,period=4,phase=1.5",
		"gamma:30,bogus=1", "gamma:30,cv", "weibull:30,cv=0.02", "weibull:30,cv=25",
	}
	for _, s := range bad {
		if _, err := ParseArrivalSpec(s); err == nil {
			t.Errorf("parse %q accepted", s)
		}
	}
}

// TestWeibullShapeInversion: the bisection must invert CV(k) to high
// accuracy over the supported range.
func TestWeibullShapeInversion(t *testing.T) {
	for _, cv := range []float64{0.2, 0.5, 1, 2, 5} {
		k, err := weibullShapeForCV(cv)
		if err != nil {
			t.Fatalf("cv %v: %v", cv, err)
		}
		got := (workloadWeibullCV)(k)
		if math.Abs(got-cv) > 1e-9 {
			t.Errorf("cv %v → k %v → cv %v", cv, k, got)
		}
	}
	// CV 1 is the exponential: shape ≈ 1.
	k, _ := weibullShapeForCV(1)
	if math.Abs(k-1) > 1e-9 {
		t.Errorf("cv 1 → shape %v, want 1", k)
	}
}

func workloadWeibullCV(k float64) float64 {
	m1 := math.Gamma(1 + 1/k)
	m2 := math.Gamma(1 + 2/k)
	return math.Sqrt(m2/(m1*m1) - 1)
}

// TestStreamDeterministicAndIncreasing: a fixed (spec, seed) pair
// reproduces the exact arrival sequence, and the instants never go back.
func TestStreamDeterministicAndIncreasing(t *testing.T) {
	spec, err := ParseArrivalSpec("gamma:50,cv=2,depth=0.6,period=3")
	if err != nil {
		t.Fatal(err)
	}
	draw := func() []float64 {
		st, err := spec.NewStream(99)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i := 0; i < 500; i++ {
			out = append(out, st.Pop())
		}
		return out
	}
	a, b := draw(), draw()
	prev := 0.0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream diverges at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < prev || math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
			t.Fatalf("arrival %d = %v after %v", i, a[i], prev)
		}
		prev = a[i]
	}
}

// TestFeederOrdersAcrossStreams: merged delivery is globally
// time-ordered.
func TestFeederOrdersAcrossStreams(t *testing.T) {
	m := quietMachine(t, 2)
	st, err := NewStation(m, Config{Classes: []Class{webClass()}, Clients: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := ParseArrivalSpec("poisson:300")
	var f Feeder
	for c := 0; c < 3; c++ {
		stm, err := spec.NewStream(int64(c) + 1)
		if err != nil {
			t.Fatal(err)
		}
		f.Add(0, c, stm)
	}
	n := f.DeliverUpTo(0.5, st)
	if n == 0 {
		t.Fatal("nothing delivered")
	}
	a := st.Account()
	if a.Offered != uint64(n) {
		t.Errorf("offered %d, delivered %d", a.Offered, n)
	}
	// Everything up to 0.5 s is consumed: nothing more matures below it.
	if f.DeliverUpTo(0.5, st) != 0 {
		t.Error("second delivery found arrivals ≤ 0.5")
	}
}
