package workload

import (
	"math/rand"
	"testing"
)

func shortJob(i int) Program {
	return Program{
		Name:   "req",
		Phases: []Phase{{Name: "serve", Alpha: 1.2, Instructions: 1e6}},
	}
}

func TestMixAdd(t *testing.T) {
	m := mustMix(t, Program{Name: "a", Phases: []Phase{{Name: "p", Alpha: 1, Instructions: 10}}})
	if err := m.Add(Program{Name: "b", Phases: []Phase{{Name: "p", Alpha: 1, Instructions: 10}}}); err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs()) != 2 {
		t.Errorf("jobs = %d", len(m.Jobs()))
	}
	if err := m.Add(Program{}); err == nil {
		t.Error("invalid program admitted")
	}
}

func TestDiurnalArrivalsModulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const base, depth, period, horizon = 100.0, 0.8, 10.0, 10.0
	s, err := DiurnalArrivals(rng, base, depth, period, horizon, 4, shortJob)
	if err != nil {
		t.Fatal(err)
	}
	// The first half-period (sin > 0) must carry clearly more arrivals
	// than the second (sin < 0).
	var first, second int
	for _, a := range s {
		if a.At < period/2 {
			first++
		} else {
			second++
		}
	}
	if first <= second {
		t.Errorf("diurnal modulation missing: %d vs %d", first, second)
	}
	// Peak-to-trough ratio roughly (1+depth)/(1-depth) = 9; demand ≥ 2×.
	if float64(first) < 2*float64(second) {
		t.Errorf("modulation too weak: %d vs %d", first, second)
	}
}

func TestDiurnalArrivalsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := DiurnalArrivals(rng, 1, 1.5, 1, 1, 1, shortJob); err == nil {
		t.Error("depth > 1 accepted")
	}
	if _, err := DiurnalArrivals(rng, 1, 0.5, 0, 1, 1, shortJob); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := DiurnalArrivals(nil, 1, 0.5, 1, 1, 1, shortJob); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := Schedule{{At: -1, CPU: 0, Program: shortJob(0)}}
	if bad.Validate() == nil {
		t.Error("negative time accepted")
	}
	bad = Schedule{{At: 1, CPU: -1, Program: shortJob(0)}}
	if bad.Validate() == nil {
		t.Error("negative cpu accepted")
	}
	bad = Schedule{{At: 1, CPU: 0, Program: Program{}}}
	if bad.Validate() == nil {
		t.Error("invalid program accepted")
	}
}
