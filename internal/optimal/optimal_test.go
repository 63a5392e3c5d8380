package optimal_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/optimal"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// randTable builds a valid nf-point whole-watt table with random steps of
// 1 to 5000 W, so prefix power sums rarely collide and the DP frontier
// stays diverse — the adversarial regime for the exactness argument.
func randTable(rng *rand.Rand, nf int) *power.Table {
	pts := make([]power.OperatingPoint, nf)
	w := 0
	for i := 0; i < nf; i++ {
		w += 1 + rng.Intn(5000)
		pts[i] = power.OperatingPoint{
			F: units.MHz(100 * float64(i+1)),
			V: units.Volts(1 + 0.1*float64(i)),
			P: units.Watts(float64(w)),
		}
	}
	return power.MustTable(pts)
}

// randProblem draws a random instance: up to maxCPU CPUs and maxFreq
// frequencies, arbitrary non-negative losses (some rows zeroed to mimic
// unpredicted CPUs), and a budget spanning infeasible to slack.
func randProblem(rng *rand.Rand, maxCPU, maxFreq int) (optimal.Problem, [][]float64) {
	n := 1 + rng.Intn(maxCPU)
	nf := 1 + rng.Intn(maxFreq)
	table := randTable(rng, nf)
	upper := make([]int, n)
	losses := make([][]float64, n)
	for i := range upper {
		upper[i] = rng.Intn(nf)
		losses[i] = make([]float64, nf)
		if rng.Intn(5) > 0 { // 1-in-5 rows stay all-zero ("no prediction")
			for k := range losses[i] {
				losses[i][k] = rng.Float64()
			}
		}
	}
	var floorPow, maxPow units.Power
	for _, u := range upper {
		floorPow += table.PowerAtIndex(0)
		maxPow += table.PowerAtIndex(u)
	}
	budget := floorPow.W()*0.9 + rng.Float64()*(maxPow.W()*1.1-floorPow.W()*0.9)
	return optimal.Problem{
		Table:  table,
		Budget: units.Watts(budget),
		Upper:  upper,
		Loss:   func(cpu, fi int) float64 { return losses[cpu][fi] },
	}, losses
}

func TestSolveEmpty(t *testing.T) {
	p := optimal.Problem{Table: power.PaperTable1(), Budget: units.Watts(0), Loss: func(int, int) float64 { return 0 }}
	a, err := optimal.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible || a.Loss != 0 || a.Power != 0 || len(a.Idx) != 0 {
		t.Fatalf("empty problem: got %+v", a)
	}
}

func TestSolveValidation(t *testing.T) {
	zero := func(int, int) float64 { return 0 }
	cases := []optimal.Problem{
		{Budget: units.Watts(1), Loss: zero},                                               // nil table
		{Table: power.PaperTable1(), Budget: units.Watts(1)},                               // nil loss
		{Table: power.PaperTable1(), Budget: units.Watts(1), Upper: []int{99}, Loss: zero}, // upper out of range
		{Table: power.PaperTable1(), Budget: units.Watts(1), Upper: []int{-1}, Loss: zero}, // negative upper
	}
	for i, p := range cases {
		if _, err := optimal.Solve(p); err == nil {
			t.Errorf("case %d: want validation error, got none", i)
		}
		if _, err := optimal.EnergyOptimal(p); err == nil {
			t.Errorf("case %d: EnergyOptimal: want validation error, got none", i)
		}
	}
}

func TestSolveInfeasibleFloors(t *testing.T) {
	table := power.PaperTable1()
	p := optimal.Problem{
		Table:  table,
		Budget: units.Watts(1), // below even one CPU's floor (9 W)
		Upper:  []int{5, 5},
		Loss:   func(cpu, fi int) float64 { return 1 - float64(fi)/10 },
	}
	a, err := optimal.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Feasible || a.Method != "floor" {
		t.Fatalf("want infeasible floor assignment, got %+v", a)
	}
	for i, k := range a.Idx {
		if k != 0 {
			t.Fatalf("cpu %d not floored: idx %d", i, k)
		}
	}
	g := optimal.Greedy(p)
	if g.Feasible {
		t.Fatalf("greedy claims feasible on infeasible budget: %+v", g)
	}
	for i, k := range g.Idx {
		if k != 0 {
			t.Fatalf("greedy cpu %d not floored: idx %d", i, k)
		}
	}
}

// TestSolveBeatsGreedyPlateau reproduces the canonical greedy failure:
// demoting by absolute next-step loss strands a CPU on a cheap plateau
// while one deeper demotion elsewhere was cheaper overall.
func TestSolveBeatsGreedyPlateau(t *testing.T) {
	table := power.MustTable([]power.OperatingPoint{
		{F: units.MHz(100), V: units.Volts(1.0), P: units.Watts(10)},
		{F: units.MHz(200), V: units.Volts(1.1), P: units.Watts(20)},
		{F: units.MHz(300), V: units.Volts(1.2), P: units.Watts(30)},
	})
	// Greedy demotes cpu0 first (0.02 beats 0.05), then cannot afford
	// cpu0's deep step (0.10) so it takes cpu1's shallow one, landing on
	// (1,1) with loss 0.07 — but demoting cpu1 twice reaches (2,0) at
	// loss 0.06. Losses stay monotone non-increasing in frequency.
	losses := [][]float64{
		{0.10, 0.02, 0},
		{0.06, 0.05, 0},
	}
	p := optimal.Problem{
		Table:  table,
		Budget: units.Watts(40),
		Upper:  []int{2, 2},
		Loss:   func(cpu, fi int) float64 { return losses[cpu][fi] },
	}
	g := optimal.Greedy(p)
	sol, err := optimal.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || !g.Feasible {
		t.Fatalf("both must be feasible: sol=%+v greedy=%+v", sol, g)
	}
	if sol.Loss > g.Loss {
		t.Fatalf("optimal loss %g worse than greedy %g", sol.Loss, g.Loss)
	}
	if sol.Loss >= g.Loss {
		t.Fatalf("instance no longer separates greedy (%g) from optimal (%g); pick a sharper one", g.Loss, sol.Loss)
	}
}

func TestEnergyOptimalArgmin(t *testing.T) {
	table := power.MustTable([]power.OperatingPoint{
		{F: units.MHz(100), V: units.Volts(1.0), P: units.Watts(10)},
		{F: units.MHz(200), V: units.Volts(1.1), P: units.Watts(15)}, // best EPI for flat IPC
		{F: units.MHz(300), V: units.Volts(1.2), P: units.Watts(40)},
	})
	p := optimal.Problem{
		Table:  table,
		Budget: units.Watts(100),
		Upper:  []int{0, 2}, // upper must not cap the baseline
		Loss:   func(int, int) float64 { return 0 },
		IPC: func(cpu, fi int) float64 {
			if cpu == 1 {
				return 0 // unpredicted: floor
			}
			return 2.0
		},
	}
	a, err := optimal.EnergyOptimal(p)
	if err != nil {
		t.Fatal(err)
	}
	// cpu0: EPI = {10/(2·100M), 15/(2·200M), 40/(2·300M)} → index 1.
	if a.Idx[0] != 1 || a.Idx[1] != 0 {
		t.Fatalf("energy argmin: got %v, want [1 0]", a.Idx)
	}
	if a.Method != "energy" || !a.Feasible {
		t.Fatalf("unexpected assignment: %+v", a)
	}
}

func TestFromGridConventions(t *testing.T) {
	table := power.PaperTable1()
	var g perfmodel.PredGrid
	g.Reset(2, table.Frequencies())
	g.Fill(0, perfmodel.Decomposition{InvAlpha: 0.8, StallSecPerInstr: 1e-9})
	// cpu1 left unfilled: FromGrid must treat it as zero loss.
	upper := []int{table.Len() - 1, table.Len() - 1}
	p := optimal.FromGrid(&g, upper, table, units.Watts(200))
	if l := p.Loss(1, 0); l != 0 {
		t.Fatalf("unfilled row loss = %g, want 0", l)
	}
	if l := p.Loss(0, 0); l <= 0 {
		t.Fatalf("filled row floor loss = %g, want > 0", l)
	}
	if ipc := p.IPC(1, 0); ipc != 0 {
		t.Fatalf("unfilled row IPC = %g, want 0", ipc)
	}
	sol, err := optimal.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("200 W over two CPUs must be feasible: %+v", sol)
	}
	// The unpredicted CPU is free to demote; the predicted one carries all
	// the loss, so the optimum keeps cpu0 as high as the budget allows.
	if sol.Idx[0] < sol.Idx[1] {
		t.Fatalf("optimum demoted the predicted CPU below the free one: %v", sol.Idx)
	}
}

// TestDPStatesReported sanity-checks the reported search effort, the
// series that explains a move in bench/'s optimal.dp_us_16x16.
func TestDPStatesReported(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, _ := randProblem(rng, 4, 8)
	sol, err := optimal.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.States <= 0 {
		t.Fatalf("solver reported no states: %+v", sol)
	}
}

// TestDifferentialBruteForce is the satellite differential test: across
// 300 seeded random instances with ≤4 CPUs × ≤8 frequencies, Solve and
// bruteForce's exhaustive enumeration (diff_test.go) must agree on the
// optimal loss to the last bit, and on feasibility. The shared CPU-order
// accumulation makes bit equality the contract, not an accident — see
// docs/optimality.md. The relaxation bound must sit below the optimum, to
// within its margin.
func TestDifferentialBruteForce(t *testing.T) {
	feasible, infeasible := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, losses := randProblem(rng, 4, 8)
		bfBest, bfFound := bruteForce(p, losses)

		sol, err := optimal.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		if sol.Feasible != bfFound {
			t.Fatalf("seed %d: Solve feasible=%v, brute force found=%v", seed, sol.Feasible, bfFound)
		}
		if !bfFound {
			infeasible++
			continue
		}
		feasible++
		if math.Float64bits(sol.Loss) != math.Float64bits(bfBest) {
			t.Fatalf("seed %d: dp loss %b != brute force %b", seed, sol.Loss, bfBest)
		}
		if sol.Bound > bfBest+sol.Margin {
			t.Fatalf("seed %d: relaxation bound %v above the optimum %v (margin %v)", seed, sol.Bound, bfBest, sol.Margin)
		}
	}
	if feasible < 100 || infeasible < 10 {
		t.Fatalf("corpus imbalance: %d feasible, %d infeasible — regenerate the instance mix", feasible, infeasible)
	}
}
