package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/fvsst"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// TestEmptyTableRejected pins the constructor contract the degenerate
// paths below rely on: a table with no operating points cannot exist, so
// schedulers never need a "zero frequencies" branch.
func TestEmptyTableRejected(t *testing.T) {
	if _, err := power.NewTable(nil); err == nil {
		t.Fatal("empty operating-point table accepted")
	}
	if _, err := power.NewTable([]power.OperatingPoint{}); err == nil {
		t.Fatal("zero-length operating-point table accepted")
	}
}

func singlePointCore(t *testing.T) *Core {
	t.Helper()
	table, err := power.NewTable([]power.OperatingPoint{
		{F: units.MHz(1000), V: units.Volts(1.2), P: units.Watts(40)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fvsst.DefaultConfig()
	cfg.Table = table
	cfg.UseIdleSignal = true
	core, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return core
}

func singlePointObs() *perfmodel.Observation {
	return &perfmodel.Observation{
		Delta: counters.Delta{
			Window:       0.02,
			Instructions: 2_000_000,
			Cycles:       3_000_000,
			L2Refs:       40_000,
			L3Refs:       8_000,
			MemRefs:      3_000,
		},
		Freq: units.MHz(1000),
	}
}

// TestSingleFrequencyTable drives Schedule, UniformLoss and DemandCurve
// over a one-point table: with nowhere to move, every CPU sits at the
// sole frequency, predicted loss is exactly zero (f == f_max), and no
// path divides by a zero frequency range.
func TestSingleFrequencyTable(t *testing.T) {
	core := singlePointCore(t)
	inputs := []ProcInput{
		{Proc: ProcRef{CPU: 0}, Obs: singlePointObs()},
		{Proc: ProcRef{CPU: 1}, Idle: true},
		{Proc: ProcRef{CPU: 2}}, // no counters
	}

	res, err := core.Schedule(inputs, units.Watts(1000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetMet || len(res.Demotions) != 0 {
		t.Fatalf("single-point pass: met=%v demotions=%d", res.BudgetMet, len(res.Demotions))
	}
	for _, a := range res.Assignments {
		if a.Actual != units.MHz(1000) || a.Desired != units.MHz(1000) {
			t.Fatalf("cpu%d assigned %v/%v, want the only point", a.Proc.CPU, a.Desired, a.Actual)
		}
		if math.IsNaN(a.PredictedLoss) || a.PredictedLoss != 0 {
			t.Fatalf("cpu%d predicted loss %v at f_max, want exactly 0", a.Proc.CPU, a.PredictedLoss)
		}
	}

	loss, err := core.UniformLoss(inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 || math.IsNaN(loss) {
		t.Fatalf("UniformLoss at the only point = %v, want 0", loss)
	}
	if _, err := core.UniformLoss(inputs, 1); err == nil {
		t.Fatal("UniformLoss accepted an index outside the one-point table")
	}
	if _, err := core.UniformLoss(inputs, -1); err == nil {
		t.Fatal("UniformLoss accepted a negative index")
	}

	curve, err := core.DemandCurve(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 1 {
		t.Fatalf("one-point table yields %d demand points, want 1", len(curve.Points))
	}
	p := curve.Points[0]
	if p.Power != units.Watts(120) || p.Loss != 0 || math.IsNaN(p.Loss) {
		t.Fatalf("demand point %+v, want 120W at zero loss", p)
	}
}

// TestSingleFrequencyInfeasibleBudget pins the met=false shape when even
// the floor cannot fit: nothing to demote, every CPU stays at the sole
// point, and the charge is reported honestly.
func TestSingleFrequencyInfeasibleBudget(t *testing.T) {
	core := singlePointCore(t)
	inputs := []ProcInput{{Proc: ProcRef{CPU: 0}, Obs: singlePointObs()}}
	res, err := core.Schedule(inputs, units.Watts(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetMet {
		t.Fatal("met=true with 40W floor against a 10W budget")
	}
	if len(res.Demotions) != 0 {
		t.Fatalf("demoted %d times with nowhere to go", len(res.Demotions))
	}
	if res.TablePower != units.Watts(40) {
		t.Fatalf("table power %v, want the honest 40W", res.TablePower)
	}
}

// TestEmptyInputs pins the zero-CPU behaviors: Schedule trivially meets
// any budget with an empty assignment, UniformLoss sums to zero, and
// DemandCurve refuses (a curve with no consumers is meaningless to the
// farm allocator).
func TestEmptyInputs(t *testing.T) {
	core := singlePointCore(t)
	res, err := core.Schedule(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetMet || len(res.Assignments) != 0 || res.TablePower != 0 {
		t.Fatalf("empty schedule: %+v", res)
	}
	loss, err := core.UniformLoss(nil, 0)
	if err != nil || loss != 0 {
		t.Fatalf("UniformLoss(nil) = %v, %v", loss, err)
	}
	if _, err := core.DemandCurve(nil); err == nil {
		t.Fatal("DemandCurve accepted zero processors")
	}
}

// TestNewCoreRejectsIgnoredOptions: the core implements every option of
// the single-machine scheduler that shapes a pass (Epsilon, UseIdleSignal,
// UseIdealFrequency), so all of them switched on together are accepted,
// and what it still refuses is what Config.Validate refuses.
func TestNewCoreRejectsIgnoredOptions(t *testing.T) {
	cfg := fvsst.DefaultConfig()
	cfg.UseIdleSignal, cfg.UseIdealFrequency, cfg.Epsilon = true, true, 0.1
	if _, err := NewCore(cfg); err != nil {
		t.Errorf("supported options rejected: %v", err)
	}
	cfg.Epsilon = 0
	if _, err := NewCore(cfg); err == nil || !strings.Contains(err.Error(), "epsilon") {
		t.Errorf("invalid epsilon: NewCore error %v, want Validate's", err)
	}
}
