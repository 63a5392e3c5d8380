package fvsst

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

func dec(alpha, stallNs float64) perfmodel.Decomposition {
	return perfmodel.Decomposition{InvAlpha: 1 / alpha, StallSecPerInstr: stallNs * 1e-9}
}

// stepOne runs Step 1 for one processor through a Pass over tab and
// returns its ε-constrained setting: the scan, or the closed form of §5
// under ideal.
func stepOne(t testing.TB, tab *power.Table, d perfmodel.Decomposition, eps float64, ideal bool) units.Frequency {
	t.Helper()
	p := NewPass(Config{Table: tab, Epsilon: eps, UseIdealFrequency: ideal})
	p.Begin(1)
	if err := p.Observe(0, d); err != nil {
		t.Fatal(err)
	}
	return tab.FrequencyAtIndex(p.Desired()[0])
}

// fit runs Step 2 through a Pass over tab: decs[i] nil marks processor i
// idle, each desire is overwritten with desired[i], and the pass is fitted
// to budget. It returns the actual settings and whether the budget was met.
func fit(t testing.TB, tab *power.Table, decs []*perfmodel.Decomposition, desired []units.Frequency, budget units.Power) ([]units.Frequency, bool) {
	t.Helper()
	p := NewPass(Config{Table: tab})
	p.Begin(len(decs))
	for i, d := range decs {
		if d == nil {
			p.Idle(i)
		} else if err := p.Observe(i, *d); err != nil {
			t.Fatal(err)
		}
		if p.Desired()[i] = tab.IndexOf(desired[i]); p.Desired()[i] < 0 {
			t.Fatalf("cpu %d: %v not in the table", i, desired[i])
		}
	}
	met := p.Fit(budget)
	return tab.FrequenciesAtIndices(p.Actual()), met
}

func TestEpsilonFrequencyCPUBoundPinsMax(t *testing.T) {
	d := dec(1.4, 0.05)
	if got := stepOne(t, power.Section5Table(), d, 0.05, false); got != units.GHz(1) {
		t.Errorf("CPU-bound ε-frequency = %v, want 1GHz", got)
	}
}

func TestEpsilonFrequencyMemoryBoundSaturates(t *testing.T) {
	// mcf-calibrated: α·S ≈ 9.3/GHz → 650 MHz would lose <5%, so on the
	// §5 coarse set the lowest admissible setting is 700 MHz.
	d := dec(1.1, 8.44)
	if got := stepOne(t, power.Section5Table(), d, 0.05, false); got != units.MHz(700) {
		t.Errorf("memory-bound ε-frequency = %v, want 700MHz", got)
	}
	// On the fine-grained Table 1 set, 650 MHz is available and chosen.
	if got := stepOne(t, power.PaperTable1(), d, 0.05, false); got != units.MHz(650) {
		t.Errorf("fine-set ε-frequency = %v, want 650MHz", got)
	}
}

func TestEpsilonFrequencyPicksLowestAdmissible(t *testing.T) {
	// Extremely memory-bound work admits even the lowest setting.
	d := dec(1.0, 100)
	if got := stepOne(t, power.Section5Table(), d, 0.05, false); got != units.MHz(600) {
		t.Errorf("ε-frequency = %v, want set minimum", got)
	}
}

func TestEpsilonFrequencyAgreesWithIdealExtension(t *testing.T) {
	tab := power.PaperTable1()
	set := tab.Frequencies()
	err := quick.Check(func(aRaw, sRaw uint16) bool {
		alpha := 0.5 + float64(aRaw%30)/10
		stall := float64(sRaw%1500) / 100 // 0 .. 15 ns
		d := dec(alpha, stall)
		scan := stepOne(t, tab, d, 0.05, false)
		ideal := stepOne(t, tab, d, 0.05, true)
		// The paper's closed form short-circuits to f_max whenever the
		// predicted IPC at f_max exceeds 1 — deliberately coarser than the
		// scan for high-IPC work. Outside that regime the two agree to
		// within one 50 MHz grid step (the scan uses strict inequality at
		// grid points, the closed form targets (1-ε)·Perf exactly).
		if d.IPCAt(set.Max()) > 1 {
			return ideal == set.Max() && ideal >= scan
		}
		return math.Abs(scan.MHz()-ideal.MHz()) <= 50.01
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestFitToBudgetNoActionWhenUnderBudget(t *testing.T) {
	d1, d2 := dec(1.4, 0.1), dec(1.1, 8.44)
	assigned := []units.Frequency{units.GHz(1), units.MHz(700)}
	out, met := fit(t, power.Section5Table(), []*perfmodel.Decomposition{&d1, &d2}, assigned, units.Watts(300))
	if !met {
		t.Error("budget not met")
	}
	if out[0] != units.GHz(1) || out[1] != units.MHz(700) {
		t.Errorf("assignment changed needlessly: %v", out)
	}
}

func TestFitToBudgetLowersCheapestFirst(t *testing.T) {
	cpuBound := dec(1.4, 0.1)  // loses a lot per step
	memBound := dec(1.1, 8.44) // loses little per step
	assigned := []units.Frequency{units.GHz(1), units.GHz(1)}
	// 140+140 = 280 W; budget 249 W forces one step down (→249 W max).
	out, met := fit(t, power.Section5Table(),
		[]*perfmodel.Decomposition{&cpuBound, &memBound}, assigned, units.Watts(249))
	if !met {
		t.Error("budget not met")
	}
	// The memory-bound CPU must absorb the reduction.
	if out[0] != units.GHz(1) || out[1] != units.MHz(900) {
		t.Errorf("fit = %v, want [1GHz 900MHz]", out)
	}
}

func TestFitToBudgetIdleLoweredFirst(t *testing.T) {
	busy := dec(1.4, 0.1)
	assigned := []units.Frequency{units.GHz(1), units.GHz(1)}
	// An idle processor has zero loss at any frequency.
	out, met := fit(t, power.Section5Table(),
		[]*perfmodel.Decomposition{&busy, nil}, assigned, units.Watts(200))
	if !met {
		t.Error("budget not met")
	}
	if out[0] != units.GHz(1) {
		t.Errorf("busy CPU lowered before idle one: %v", out)
	}
	if out[1] >= units.GHz(1) {
		t.Errorf("idle CPU not lowered: %v", out)
	}
}

func TestFitToBudgetInfeasible(t *testing.T) {
	tab := power.Section5Table()
	d := dec(1.4, 0.1)
	out, met := fit(t, tab, []*perfmodel.Decomposition{&d}, []units.Frequency{units.GHz(1)}, units.Watts(10))
	if met {
		t.Error("10W budget reported met")
	}
	if out[0] != tab.MinFrequency() {
		t.Errorf("infeasible fit should floor at minimum, got %v", out[0])
	}
}

// TestWorkedExampleSection5 reproduces the paper's §5 sample
// calculation: four CPUs, frequency set {0.6..1.0 GHz}, 294 W budget. At
// T0 the ε-constrained vector is [1.0, 0.7, 0.8, 0.8] GHz (348 W — over
// budget) and Step 2 lowers it to [0.6, 0.6, 0.7, 0.7] GHz with power
// vector [48, 48, 66, 66] = 228 W... the paper's published actual vector
// [0.6,0.6,0.7,0.7] has stated powers [109,48,66,66], an internal
// inconsistency in the paper (109 W is the 0.9 GHz entry of its own Table
// 1). We assert the algorithmic invariants the text states: the actual
// vector is under budget, dominated by the desired vector, and CPU 0 —
// the least-saturated processor — takes the largest loss.
func TestWorkedExampleSection5(t *testing.T) {
	tab := power.Section5Table()
	set := tab.Frequencies()
	p := NewPass(Config{Table: tab, Epsilon: 0.05})

	// Decompositions chosen so Step 1 yields the paper's ε-constrained
	// vector [1.0GHz, 0.7GHz, 0.8GHz, 0.8GHz].
	decs := []perfmodel.Decomposition{
		dec(1.4, 0.1),  // CPU-bound → 1.0 GHz
		dec(1.1, 8.44), // strongly memory-bound → 0.7 GHz
		dec(1.2, 5.2),  // moderately memory-bound → 0.8 GHz
		dec(1.2, 5.2),  // same → 0.8 GHz
	}
	// run is one pass over decs at the 294 W processor budget (the
	// surviving 480 W supply minus the 186 W non-CPU base).
	run := func() (desired, actual []units.Frequency, met bool) {
		p.Begin(len(decs))
		for i, d := range decs {
			if err := p.Observe(i, d); err != nil {
				t.Fatal(err)
			}
		}
		desired = tab.FrequenciesAtIndices(p.Desired())
		met = p.Fit(units.Watts(294))
		return desired, tab.FrequenciesAtIndices(p.Actual()), met
	}

	// T0.
	desired, actual, met := run()
	want := []units.Frequency{units.GHz(1), units.MHz(700), units.MHz(800), units.MHz(800)}
	if !slices.Equal(desired, want) {
		t.Fatalf("ε-constrained = %v, want %v", desired, want)
	}
	if !met {
		t.Fatal("294W budget not met")
	}
	if total := p.TablePower(); total > units.Watts(294) {
		t.Errorf("total %v exceeds budget", total)
	}
	for i := range actual {
		if actual[i] > desired[i] {
			t.Errorf("actual[%d]=%v above desired %v", i, actual[i], desired[i])
		}
	}
	// Step 2 protects the CPU-bound processor (its steps cost the most)
	// and sheds power from the saturated ones; losses stay bounded.
	if actual[0] != units.GHz(1) {
		t.Errorf("CPU-bound processor lowered to %v before the cheap ones", actual[0])
	}
	for i, d := range decs {
		loss := d.PerfLoss(set.Max(), actual[i])
		if loss < 0 || loss > 0.45 {
			t.Errorf("loss[%d] = %v out of expected range", i, loss)
		}
		if i > 0 && loss == 0 {
			t.Errorf("memory-bound processor %d shed nothing", i)
		}
	}

	// T1: processor 0's workload turns memory-intensive; now everything
	// fits at its ε-constrained frequency with power ≤ 282 W, and every
	// aggregate loss is within ε — the paper's [ε,ε,ε,ε] vector.
	decs[0] = dec(1.0, 12)
	desired, actual, met = run()
	if desired[0] != units.MHz(600) {
		t.Fatalf("T1 ε-constrained[0] = %v, want 600MHz", desired[0])
	}
	if !met {
		t.Fatal("T1 budget not met")
	}
	// Paper: [48, 66, 84, 84] W = 282 W.
	if total := p.TablePower(); math.Abs(total.W()-282) > 1e-9 {
		t.Errorf("T1 total = %v, want 282W", total)
	}
	for i, d := range decs {
		if actual[i] != desired[i] {
			t.Errorf("T1 actual[%d] = %v, want ε-constrained %v", i, actual[i], desired[i])
		}
		if loss := d.PerfLoss(set.Max(), actual[i]); loss >= 0.05 {
			t.Errorf("T1 loss[%d] = %v, want < ε", i, loss)
		}
	}
}

func TestFitToBudgetNeverRaisesFrequencies(t *testing.T) {
	tab := power.PaperTable1()
	set := tab.Frequencies()
	err := quick.Check(func(raw []uint8, budgetRaw uint16) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		assigned := make([]units.Frequency, len(raw))
		decs := make([]*perfmodel.Decomposition, len(raw))
		for i, r := range raw {
			assigned[i] = set[int(r)%len(set)]
			d := dec(1.0+float64(r%10)/10, float64(r%16))
			decs[i] = &d
		}
		budget := units.Watts(float64(budgetRaw%600) + 9)
		out, met := fit(t, tab, decs, assigned, budget)
		for i := range out {
			if out[i] > assigned[i] {
				return false
			}
		}
		if met {
			total, err := TotalTablePower(out, tab)
			if err != nil || total > budget {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestStepTwoOrderByHand spells the selection order out on four CPUs over
// the §5 table: equal losses go to the higher current index, then to the
// lower CPU number, and a CPU whose next step reads NaN is never moved —
// not even when it is all that stands between the fit and its budget.
func TestStepTwoOrderByHand(t *testing.T) {
	tab := power.Section5Table()
	var g perfmodel.PredGrid
	g.Reset(4, tab.Frequencies())
	g.Fill(2, perfmodel.Decomposition{InvAlpha: math.NaN()})
	// CPUs 0, 1 and 3 have no prediction: zero loss at every step.
	idx := []int{2, 3, 4, 3}
	demotions, met := FitToBudgetGrid(&g, idx, tab, units.Watts(1), nil)
	if met {
		t.Fatal("1 W budget reported met")
	}
	if want := []int{0, 0, 4, 0}; !slices.Equal(idx, want) {
		t.Fatalf("floor reached at %v, want %v (cpu 2 untouched)", idx, want)
	}
	var order []int
	for _, d := range demotions {
		order = append(order, d.CPU)
	}
	// From index 3: cpu 1 then cpu 3; from 2: cpus 0, 1, 3; from 1 likewise.
	if want := []int{1, 3, 0, 1, 3, 0, 1, 3}; !slices.Equal(order, want) {
		t.Fatalf("demotion order %v, want %v", order, want)
	}
}
