package power

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestMotivatingPlantCapacity(t *testing.T) {
	p := MotivatingPlant(0.5)
	if got := p.Capacity(); got.W() != 960 {
		t.Errorf("capacity = %v, want 960W (2×480W)", got)
	}
}

func TestNewPlantValidation(t *testing.T) {
	if _, err := NewPlant(0, units.Watts(480)); err == nil {
		t.Error("zero ΔT accepted")
	}
	if _, err := NewPlant(1); err == nil {
		t.Error("no supplies accepted")
	}
	if _, err := NewPlant(1, units.Watts(-5)); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestFailSupply(t *testing.T) {
	p := MotivatingPlant(0.5)
	if err := p.FailSupply("PS0"); err != nil {
		t.Fatal(err)
	}
	if got := p.Capacity(); got.W() != 480 {
		t.Errorf("capacity after failure = %v, want 480W", got)
	}
	if err := p.FailSupply("PS0"); err == nil {
		t.Error("double failure accepted")
	}
	if err := p.FailSupply("PS9"); err == nil {
		t.Error("unknown supply accepted")
	}
}

// TestCascadeScenario replays §2: at T0 a supply fails; if the system is
// not under the new 480 W limit within ΔT the second supply fails too.
func TestCascadeScenario(t *testing.T) {
	const deltaT = 0.5
	p := MotivatingPlant(deltaT)
	load := units.Watts(746) // full system load

	if p.Observe(0, load) {
		t.Fatal("cascade with both supplies healthy")
	}
	if err := p.FailSupply("PS0"); err != nil {
		t.Fatal(err)
	}
	// Immediately after failure: overloaded but not yet cascaded.
	if p.Observe(0.1, load) {
		t.Fatal("cascaded before ΔT elapsed")
	}
	if p.Observe(0.3, load) {
		t.Fatal("cascaded at 0.2s < ΔT")
	}
	// Past the deadline: cascade.
	if !p.Observe(0.7, load) {
		t.Fatal("no cascade after ΔT of overload")
	}
	if p.Capacity() != 0 {
		t.Errorf("capacity after cascade = %v, want 0", p.Capacity())
	}
}

// TestCascadeAvertedByShedding shows that dropping the load under the
// surviving capacity before ΔT prevents the cascade — the job fvsst exists
// to do.
func TestCascadeAvertedByShedding(t *testing.T) {
	p := MotivatingPlant(0.5)
	if err := p.FailSupply("PS1"); err != nil {
		t.Fatal(err)
	}
	if p.Observe(0.1, units.Watts(746)) {
		t.Fatal("premature cascade")
	}
	// Scheduler sheds load to 450 W at t=0.4 (< ΔT after overload onset).
	if p.Observe(0.4, units.Watts(450)) {
		t.Fatal("cascade despite shedding in time")
	}
	// Long after, still fine.
	if p.Observe(10, units.Watts(450)) {
		t.Fatal("cascade while under capacity")
	}
}

func TestOverloadClockResetsOnRecovery(t *testing.T) {
	p := MotivatingPlant(1.0)
	if err := p.FailSupply("PS0"); err != nil {
		t.Fatal(err)
	}
	p.Observe(0, units.Watts(700))   // overload starts
	p.Observe(0.9, units.Watts(400)) // recovered before deadline
	p.Observe(1.0, units.Watts(700)) // overload restarts — new clock
	if p.Observe(1.9, units.Watts(700)) {
		t.Fatal("cascade: overload clock did not reset")
	}
	if !p.Observe(2.1, units.Watts(700)) {
		t.Fatal("no cascade after full ΔT of second overload")
	}
}

func TestObservePanicsOnTimeTravel(t *testing.T) {
	p := MotivatingPlant(0.5)
	p.Observe(5, units.Watts(100))
	defer func() {
		if recover() == nil {
			t.Error("want panic on backwards time")
		}
	}()
	p.Observe(4, units.Watts(100))
}

func TestBudgetSchedule(t *testing.T) {
	sched, err := NewBudgetSchedule(units.Watts(560),
		BudgetEvent{At: 10, Budget: units.Watts(294), Label: "PS0 fails"},
		BudgetEvent{At: 20, Budget: units.Watts(560), Label: "PS0 restored"},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 560}, {9.99, 560}, {10, 294}, {15, 294}, {20, 560}, {100, 560},
	}
	for _, c := range cases {
		if got := sched.BudgetAt(c.t); got.W() != c.want {
			t.Errorf("BudgetAt(%v) = %v, want %vW", c.t, got, c.want)
		}
	}
	if len(sched.events) != 2 {
		t.Errorf("%d events, want 2", len(sched.events))
	}
}

func TestBudgetScheduleSortsEvents(t *testing.T) {
	// Thirteen events listed latest first, the second and third both at
	// t=12: past the sort's insertion-sort cutoff, so only a stable sort
	// keeps the later-listed 102 W in force.
	var tied []BudgetEvent
	for i := 0; i < 13; i++ {
		at := float64(13 - i)
		if i == 2 {
			at = 12
		}
		tied = append(tied, BudgetEvent{At: at, Budget: units.Watts(100 + float64(i))})
	}
	for _, c := range []struct {
		name   string
		events []BudgetEvent
		at     float64
		want   float64
	}{
		{"out of order", []BudgetEvent{
			{At: 20, Budget: units.Watts(50)},
			{At: 10, Budget: units.Watts(75)},
		}, 15, 75},
		{"same time in list order", tied, 12.5, 102},
	} {
		sched, err := NewBudgetSchedule(units.Watts(100), c.events...)
		if err != nil {
			t.Fatal(err)
		}
		if got := sched.BudgetAt(c.at); got.W() != c.want {
			t.Errorf("%s: BudgetAt(%v) = %v, want %vW", c.name, c.at, got, c.want)
		}
	}
}

func TestBudgetScheduleValidation(t *testing.T) {
	if _, err := NewBudgetSchedule(0); err == nil {
		t.Error("zero initial budget accepted")
	}
	if _, err := NewBudgetSchedule(units.Watts(100), BudgetEvent{At: -1, Budget: units.Watts(50)}); err == nil {
		t.Error("negative event time accepted")
	}
	if _, err := NewBudgetSchedule(units.Watts(100), BudgetEvent{At: 1, Budget: 0}); err == nil {
		t.Error("zero event budget accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range []float64{nan, inf} {
		if _, err := NewBudgetSchedule(units.Watts(w)); err == nil {
			t.Errorf("initial budget %v accepted", w)
		}
		if _, err := NewBudgetSchedule(units.Watts(100), BudgetEvent{At: 1, Budget: units.Watts(w)}); err == nil {
			t.Errorf("event budget %v accepted", w)
		}
		if _, err := NewBudgetSchedule(units.Watts(100), BudgetEvent{At: w, Budget: units.Watts(50)}); err == nil {
			t.Errorf("event time %v accepted", w)
		}
	}
}

func TestEnergyMeter(t *testing.T) {
	var e EnergyMeter
	if err := e.Accumulate(units.Watts(100), 2); err != nil {
		t.Fatal(err)
	}
	if err := e.Accumulate(units.Watts(50), 2); err != nil {
		t.Fatal(err)
	}
	if got := e.Total().J(); got != 300 {
		t.Errorf("Total = %v J, want 300", got)
	}
	if err := e.Accumulate(units.Watts(10), -1); err == nil {
		t.Error("negative dt accepted")
	}
	if err := e.Accumulate(units.Watts(-10), 1); err == nil {
		t.Error("negative power accepted")
	}
}

// TestAccumulateRepeatMatchesAccumulate holds the closed-form repeat to the
// n Accumulate calls it stands for — the total, on the bits —
// for Table 1's whole-watt powers and the fractional ones machine power
// takes between table points (PowerInterp), here each Table 1 power
// scaled by 1.05², and to Accumulate's verdict on bad inputs.
func TestAccumulateRepeatMatchesAccumulate(t *testing.T) {
	var powers []units.Power
	for _, pt := range PaperTable1().Points() {
		for _, p := range []units.Power{pt.P, units.Watts(pt.P.W() * 1.05 * 1.05)} {
			powers = append(powers, p, 4*p+units.Watts(186))
		}
	}
	powers = append(powers, 0)
	for _, p := range powers {
		for _, dt := range []float64{0.01, 0.001} {
			// fresh repeats n quanta from zero; cont continues from the
			// previous n, so its batches start mid-binade.
			var loop, cont EnergyMeter
			done := 0
			for _, n := range []int{0, 1, 3, 1000, 360_000} {
				var fresh EnergyMeter
				if err := fresh.AccumulateRepeat(p, dt, n); err != nil {
					t.Fatal(err)
				}
				if err := cont.AccumulateRepeat(p, dt, n-done); err != nil {
					t.Fatal(err)
				}
				for ; done < n; done++ {
					if err := loop.Accumulate(p, dt); err != nil {
						t.Fatal(err)
					}
				}
				for _, got := range []EnergyMeter{fresh, cont} {
					if math.Float64bits(got.Total().J()) != math.Float64bits(loop.Total().J()) {
						t.Fatalf("p=%v dt=%v n=%d: repeat %+v, %d Accumulates %+v", p, dt, n, got, n, loop)
					}
				}
			}
		}
	}

	for _, bad := range []struct {
		p  units.Power
		dt float64
		n  int
	}{{100, 0.01, -1}, {100, -0.01, 5}, {-100, 0.01, 5}, {-100, 0.01, 0}} {
		e := EnergyMeter{total: 7}
		if err := e.AccumulateRepeat(bad.p, bad.dt, bad.n); err == nil {
			t.Errorf("AccumulateRepeat(%v, %v, %d) accepted", bad.p, bad.dt, bad.n)
		}
		if e != (EnergyMeter{total: 7}) {
			t.Errorf("AccumulateRepeat(%v, %v, %d) moved the meter on error: %+v", bad.p, bad.dt, bad.n, e)
		}
		if bad.n >= 0 {
			if err := new(EnergyMeter).Accumulate(bad.p, bad.dt); err == nil {
				t.Errorf("Accumulate(%v, %v) accepted what AccumulateRepeat rejects", bad.p, bad.dt)
			}
		}
	}
}

func TestSystemPowerMotivatingBreakdown(t *testing.T) {
	s := MotivatingSystem()
	if s.Base.W() != 186 {
		t.Errorf("base = %v, want 186W (746 - 4×140)", s.Base)
	}
	// Full CPU power on top of the base reproduces the §2 total: 746 W.
	if got := s.Base + units.Watts(560); got.W() != 746 {
		t.Errorf("base + 560W = %v, want 746W", got)
	}
	// §2/§5: a single surviving 480 W supply leaves 294 W for the CPUs.
	budget, ok := s.CPUBudgetFor(units.Watts(480))
	if !ok || budget.W() != 294 {
		t.Errorf("CPUBudgetFor(480W) = %v,%v want 294W,true", budget, ok)
	}
	if _, ok := s.CPUBudgetFor(units.Watts(100)); ok {
		t.Error("limit below base should be infeasible")
	}
}
