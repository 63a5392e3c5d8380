package experiments

import (
	"math"
	"strings"
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
func fourCPUInput(budget float64) policyInput {
	return policyInput{
		Decs:    []*perfmodel.Decomposition{dec(1.4, 0.1), dec(1.1, 8.44), dec(1.2, 5.2), nil},
		Idle:    []bool{false, false, false, true},
		Util:    []float64{1, 1, 0.6, 0},
		Table:   power.PaperTable1(),
		Budget:  units.Watts(budget),
		Epsilon: 0.05,
	}
}

func TestUniformFitsBudgetEqually(t *testing.T) {
	out, err := assignUniform(fourCPUInput(294))
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
	out, err := assignUniform(fourCPUInput(20))
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
	out, err := assignPowerDown(fourCPUInput(294))
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
	out, err := assignPowerDown(fourCPUInput(5))
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
	out, err := assignUtilDVS(in)
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
	out, err := assignUtilDVS(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != units.GHz(1) {
		t.Errorf("memory-bound full-util CPU at %v — util-DVS should be blind to saturation", out[1])
	}
	// fvsst, by contrast, saturates it.
	fv, err := assignFVSST(in)
	if err != nil {
		t.Fatal(err)
	}
	if fv[1] != units.MHz(650) {
		t.Errorf("fvsst put memory-bound CPU at %v, want 650MHz", fv[1])
	}
}

func TestUtilizationDVSBudgetClamp(t *testing.T) {
	in := fourCPUInput(200)
	out, err := assignUtilDVS(in)
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
	out, err := assignFVSST(in)
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
	if _, err := assignFVSST(policyInput{
		Decs: in.Decs, Idle: in.Idle, Util: in.Util, Table: in.Table, Budget: in.Budget,
	}); err == nil {
		t.Error("epsilon=0 accepted")
	}
}

// TestFVSSTBeatsComparatorsUnderBudget is the headline ablation: every
// policy keeps its table power under each budget of ab-policies' sweep,
// on the sweep's own workload and on fourCPUInput's, and at the
// motivating 294 W budget fvsst retains more mean normalised predicted
// performance than uniform scaling and power-down — the paper's core
// claim.
func TestFVSSTBeatsComparatorsUnderBudget(t *testing.T) {
	fixtures := []struct {
		name string
		in   policyInput
	}{{"ablationInput", ablationInput()}, {"fourCPUInput", fourCPUInput(0)}}
	for _, fx := range fixtures {
		in := fx.in
		for _, b := range ablationBudgetsW {
			in.Budget = units.Watts(b)
			for _, pol := range policies {
				out, err := pol.assign(in)
				if err != nil {
					t.Fatalf("%s on %s at %v: %v", pol.name, fx.name, in.Budget, err)
				}
				p, err := assignmentPower(out, in.Table)
				if err != nil {
					t.Fatalf("%s on %s at %v: %v", pol.name, fx.name, in.Budget, err)
				}
				if p > in.Budget {
					t.Errorf("%s on %s exceeds the %v budget: %v", pol.name, fx.name, in.Budget, p)
				}
			}
		}
	}

	in := fourCPUInput(294)
	set := in.Table.Frequencies()
	perf := map[string]float64{}
	for _, pol := range policies {
		out, err := pol.assign(in)
		if err != nil {
			t.Fatalf("%s: %v", pol.name, err)
		}
		perf[pol.name] = meanNormPerf(in.Decs, in.Idle, out, set.Max())
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
	out, _ := assignPowerDown(in)
	if got := worstCaseLoss(in.Decs, in.Idle, out, set); got != 1 {
		t.Errorf("power-down worst loss = %v, want 1", got)
	}
	// fvsst keeps the worst loss bounded well below total.
	out, _ = assignFVSST(in)
	if got := worstCaseLoss(in.Decs, in.Idle, out, set); got <= 0 || got > 0.5 {
		t.Errorf("fvsst worst loss = %v", got)
	}
}

// TestPolicyNames pins the ablation's policies, in report column order.
func TestPolicyNames(t *testing.T) {
	var got []string
	for _, pol := range policies {
		got = append(got, pol.name)
	}
	if want := "fvsst,uniform,powerdown,util-dvs"; strings.Join(got, ",") != want {
		t.Errorf("policies %v, want %s", got, want)
	}
}

func TestMeanNormPerf(t *testing.T) {
	fMax := units.GHz(1)
	cpu := &perfmodel.Decomposition{InvAlpha: 1} // pure CPU: perf ∝ f
	decs := []*perfmodel.Decomposition{cpu, cpu, cpu, nil}
	idle := []bool{false, false, true, false}

	// CPU0 at full speed (1.0), CPU1 at half (0.5); CPU2 idle and CPU3
	// data-less are excluded. Mean = 0.75.
	assigned := []units.Frequency{units.GHz(1), units.MHz(500), units.GHz(1), units.GHz(1)}
	got := meanNormPerf(decs, idle, assigned, fMax)
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("MeanNormPerf = %v, want 0.75", got)
	}

	// A powered-off busy processor contributes 0.
	assigned[1] = 0
	got = meanNormPerf(decs, idle, assigned, fMax)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("with power-down = %v, want 0.5", got)
	}

	// No scorable processors → 0.
	if got := meanNormPerf([]*perfmodel.Decomposition{nil}, []bool{false},
		[]units.Frequency{units.GHz(1)}, fMax); got != 0 {
		t.Errorf("empty = %v", got)
	}
}
