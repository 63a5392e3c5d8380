package netcluster

import (
	"testing"

	"repro/internal/power"
	"repro/internal/units"
)

// TestBudgetSourceDrivesRounds: a power.BudgetSource plugged into the
// networked coordinator fires the budget-change trigger.
func TestBudgetSourceDrivesRounds(t *testing.T) {
	a0, _ := startAgent(t, "n0", 1, 0, nil)
	src, err := power.ParseScheduleSpec("900,0.1:600")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Fvsst:  testFvsst(),
		Budget: units.Watts(900),
		Source: src,
		Seed:   5,
	}
	fastRetry(&cfg)
	c, err := NewCoordinator(cfg, NodeSpec{Name: "n0", Addr: a0.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	decs := c.Decisions()
	if len(decs) != 4 {
		t.Fatalf("%d decisions", len(decs))
	}
	if got := decs[0].Budget; got.W() != 900 {
		t.Errorf("first round budget %v, want the source's 900W", got)
	}
	last := decs[len(decs)-1]
	if got := last.Budget; got.W() != 600 {
		t.Errorf("late round budget %v, want the source's 600W step", got)
	}
	sawChange := false
	for _, d := range decs {
		if d.Trigger == "budget-change" {
			sawChange = true
		}
	}
	if !sawChange {
		t.Error("no budget-change round despite the source stepping 900→600")
	}
}
