package baseline

import (
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

func dec(alpha, stallNs float64) *perfmodel.Decomposition {
	return &perfmodel.Decomposition{InvAlpha: 1 / alpha, StallSecPerInstr: stallNs * 1e-9}
}

// assignmentPower is the table power of an assignment, a zero frequency
// (powered off) drawing nothing.
func assignmentPower(assigned []units.Frequency, table *power.Table) (units.Power, error) {
	var sum units.Power
	for _, f := range assigned {
		if f == 0 {
			continue
		}
		p, err := table.PowerAt(f)
		if err != nil {
			return 0, err
		}
		sum += p
	}
	return sum, nil
}

// fourCPUInput: CPU0 CPU-bound, CPU1 memory-bound, CPU2 moderate, CPU3 idle.
func fourCPUInput(budget float64) Input {
	return Input{
		Decs:    []*perfmodel.Decomposition{dec(1.4, 0.1), dec(1.1, 8.44), dec(1.2, 5.2), nil},
		Idle:    []bool{false, false, false, true},
		Util:    []float64{1, 1, 0.6, 0},
		Table:   power.PaperTable1(),
		Budget:  units.Watts(budget),
		Epsilon: 0.05,
	}
}

func TestInputValidate(t *testing.T) {
	good := fourCPUInput(294)
	if err := good.Validate(); err != nil {
		t.Fatalf("good input rejected: %v", err)
	}
	bad := good
	bad.Idle = nil
	if bad.Validate() == nil {
		t.Error("mismatched slices accepted")
	}
	bad = good
	bad.Table = nil
	if bad.Validate() == nil {
		t.Error("nil table accepted")
	}
	bad = good
	bad.Budget = 0
	if bad.Validate() == nil {
		t.Error("zero budget accepted")
	}
	if _, err := (Uniform{}).Assign(Input{}); err == nil {
		t.Error("empty input accepted")
	}
}

func TestUniformFitsBudgetEqually(t *testing.T) {
	out, err := (Uniform{}).Assign(fourCPUInput(294))
	if err != nil {
		t.Fatal(err)
	}
	// 294/4 = 73.5 W per CPU → highest setting ≤ 73.5 W is 700 MHz (66 W).
	for i, f := range out {
		if f != units.MHz(700) {
			t.Errorf("cpu %d at %v, want 700MHz", i, f)
		}
	}
	p, _ := assignmentPower(out, power.PaperTable1())
	if p > units.Watts(294) {
		t.Errorf("uniform power %v over budget", p)
	}
}

func TestUniformFloorsWhenInfeasible(t *testing.T) {
	out, err := (Uniform{}).Assign(fourCPUInput(20))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range out {
		if f != units.MHz(250) {
			t.Errorf("cpu %d at %v, want floor", i, f)
		}
	}
}

func TestPowerDownKeepsBusiestCPUs(t *testing.T) {
	// 294 W / 140 W = 2 CPUs may stay up.
	out, err := (PowerDown{}).Assign(fourCPUInput(294))
	if err != nil {
		t.Fatal(err)
	}
	up := 0
	for _, f := range out {
		if f == units.GHz(1) {
			up++
		} else if f != 0 {
			t.Errorf("power-down produced intermediate frequency %v", f)
		}
	}
	if up != 2 {
		t.Errorf("%d CPUs up, want 2", up)
	}
	// The idle CPU must be among the victims.
	if out[3] != 0 {
		t.Errorf("idle CPU kept up at %v", out[3])
	}
	p, _ := assignmentPower(out, power.PaperTable1())
	if p > units.Watts(294) {
		t.Errorf("power %v over budget", p)
	}
}

func TestPowerDownZeroBudgetKillsEverything(t *testing.T) {
	out, err := (PowerDown{}).Assign(fourCPUInput(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range out {
		if f != 0 {
			t.Errorf("cpu %d still up at %v", i, f)
		}
	}
}

func TestUtilizationDVSTracksUtil(t *testing.T) {
	in := fourCPUInput(560)
	out, err := (UtilizationDVS{}).Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	// util=1 → 1 GHz; util=0.6 → ceil(600 MHz) = 600 MHz; idle → min.
	if out[0] != units.GHz(1) || out[1] != units.GHz(1) {
		t.Errorf("full-util CPUs at %v/%v", out[0], out[1])
	}
	if out[2] != units.MHz(600) {
		t.Errorf("60%%-util CPU at %v, want 600MHz", out[2])
	}
	if out[3] != units.MHz(250) {
		t.Errorf("idle CPU at %v, want 250MHz", out[3])
	}
}

func TestUtilizationDVSIsMemoryBlind(t *testing.T) {
	// The §3.1 criticism: a fully-utilised memory-bound CPU gets f_max
	// even though it would lose nothing at 650 MHz.
	in := fourCPUInput(560)
	out, err := (UtilizationDVS{}).Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != units.GHz(1) {
		t.Errorf("memory-bound full-util CPU at %v — util-DVS should be blind to saturation", out[1])
	}
	// fvsst, by contrast, saturates it.
	fv, err := (FVSST{}).Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	if fv[1] != units.MHz(650) {
		t.Errorf("fvsst put memory-bound CPU at %v, want 650MHz", fv[1])
	}
}

func TestUtilizationDVSBudgetClamp(t *testing.T) {
	in := fourCPUInput(200)
	out, err := (UtilizationDVS{}).Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := assignmentPower(out, in.Table)
	if p > units.Watts(200) {
		t.Errorf("clamped power %v over budget", p)
	}
}

func TestFVSSTPolicyMatchesBudgetAndSaturation(t *testing.T) {
	in := fourCPUInput(294)
	out, err := (FVSST{}).Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := assignmentPower(out, in.Table)
	if p > units.Watts(294) {
		t.Errorf("fvsst power %v over budget", p)
	}
	// The idle CPU sits at the minimum; the CPU-bound one keeps the most
	// frequency of all.
	if out[3] != units.MHz(250) {
		t.Errorf("idle CPU at %v", out[3])
	}
	for i := 1; i < 3; i++ {
		if out[i] > out[0] {
			t.Errorf("memory-bound CPU %d (%v) above CPU-bound CPU 0 (%v)", i, out[i], out[0])
		}
	}
	if _, err := (FVSST{}).Assign(Input{
		Decs: in.Decs, Idle: in.Idle, Util: in.Util, Table: in.Table, Budget: in.Budget,
	}); err == nil {
		t.Error("epsilon=0 accepted")
	}
}

// TestFVSSTBeatsComparatorsUnderBudget is the headline ablation: at the
// motivating 294 W budget, fvsst retains more mean normalised predicted
// performance than uniform scaling and power-down, while keeping power
// under the limit — the paper's core claim.
func TestFVSSTBeatsComparatorsUnderBudget(t *testing.T) {
	in := fourCPUInput(294)
	set := in.Table.Frequencies()
	perf := map[string]float64{}
	for _, pol := range []Policy{Uniform{}, PowerDown{}, UtilizationDVS{}, FVSST{}} {
		out, err := pol.Assign(in)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		p, err := assignmentPower(out, in.Table)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if p > in.Budget {
			t.Errorf("%s exceeds budget: %v", pol.Name(), p)
		}
		perf[pol.Name()] = MeanNormPerf(in.Decs, in.Idle, out, set.Max())
	}
	if perf["fvsst"] <= perf["uniform"] {
		t.Errorf("fvsst %v not above uniform %v", perf["fvsst"], perf["uniform"])
	}
	if perf["fvsst"] <= perf["powerdown"] {
		t.Errorf("fvsst %v not above powerdown %v", perf["fvsst"], perf["powerdown"])
	}
	if perf["fvsst"] < perf["util-dvs"] {
		t.Errorf("fvsst %v below util-dvs %v", perf["fvsst"], perf["util-dvs"])
	}
}

func TestWorstCaseLoss(t *testing.T) {
	in := fourCPUInput(294)
	set := in.Table.Frequencies()
	// Power-down: the sacrificed busy CPU is a total (1.0) loss.
	out, _ := (PowerDown{}).Assign(in)
	if got := WorstCaseLoss(in.Decs, in.Idle, out, set); got != 1 {
		t.Errorf("power-down worst loss = %v, want 1", got)
	}
	// fvsst keeps the worst loss bounded well below total.
	out, _ = (FVSST{}).Assign(in)
	if got := WorstCaseLoss(in.Decs, in.Idle, out, set); got <= 0 || got > 0.5 {
		t.Errorf("fvsst worst loss = %v", got)
	}
}
