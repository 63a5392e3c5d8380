package farm

import (
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/units"
)

func TestStaticSource(t *testing.T) {
	s := Static(units.Watts(640))
	for _, now := range []float64{0, 1.5, 1e6} {
		if got := s.BudgetAt(now); got.W() != 640 {
			t.Errorf("BudgetAt(%v) = %v, want 640W", now, got)
		}
	}
}

func TestFailover(t *testing.T) {
	ups, err := NewUPS(units.Joules(6000), 3)
	if err != nil {
		t.Fatal(err)
	}
	f := Failover{At: 1, Before: Static(units.Watts(900)), After: ups}
	if got := f.BudgetAt(0.999).W(); got != 900 {
		t.Errorf("budget just before failover = %vW, want the grid's 900", got)
	}
	if got := f.BudgetAt(1).W(); got != 2000 {
		t.Errorf("budget at failover = %vW, want the UPS governor's 2000 (6000J/3s)", got)
	}
	// Runway: the grid feed has no stored-energy limit, the UPS does.
	if got := f.RunwayAt(0.5, units.Watts(900)); !math.IsInf(got, 1) {
		t.Errorf("runway on grid = %v, want +Inf", got)
	}
	if got := f.RunwayAt(1.5, units.Watts(2000)); got != 3 {
		t.Errorf("runway on UPS at the governor draw = %v, want the configured 3s", got)
	}
}

func TestParseScheduleSpec(t *testing.T) {
	src, err := power.ParseScheduleSpec("900")
	if err != nil {
		t.Fatal(err)
	}
	if got := src.BudgetAt(10).W(); got != 900 {
		t.Errorf("flat spec at t=10 = %vW, want 900", got)
	}

	src, err = power.ParseScheduleSpec("900,1:600,3:0.75kW")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		now  float64
		want float64
	}{{0.5, 900}, {1.5, 600}, {3.5, 750}} {
		if got := src.BudgetAt(tc.now).W(); got != tc.want {
			t.Errorf("BudgetAt(%v) = %vW, want %v", tc.now, got, tc.want)
		}
	}

	for _, spec := range []string{
		"",           // no initial budget
		"abc",        // unparseable budget
		"-5",         // non-positive initial budget
		"900,600",    // event missing t: prefix
		"900,x:600",  // unparseable event time
		"900,1:abc",  // unparseable event budget
		"900,-1:600", // negative event time
		"900,1:0",    // non-positive event budget
	} {
		if _, err := power.ParseScheduleSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}
