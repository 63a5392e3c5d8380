package invariant_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fvsst"
	"repro/internal/invariant"
	"repro/internal/optimal"
	"repro/internal/power"
	"repro/internal/units"
)

// FuzzStepTwoAgreement is the direct test of the Step-2 walk every
// scheduler ships. The selection rule has one production body,
// fvsst.FitToBudgetGrid, and two independent statements kept to check it:
// the checker oracle invariant.StepTwoReplay and the pure function
// optimal.Greedy. Over random grids — rows without a prediction (idle or
// unobserved), duplicated rows whose losses tie exactly, budgets from
// above the desire to below the floor — all three must reach the same
// indices and the same met verdict, the oracle must accept the demotion
// sequence step for step, and every logged loss must carry the bits of
// the grid cell it was chosen by.
func FuzzStepTwoAgreement(f *testing.F) {
	// testdata/fuzz holds the tie, all-invalid and infeasible seeds.
	f.Add(int64(1), uint8(5), uint16(0), uint16(0), 0.5)
	f.Add(int64(-5), uint8(0), uint16(0), uint16(0), 1.2) // one CPU, desire fits
	f.Fuzz(func(t *testing.T, seed int64, nCPU uint8, invalid, dup uint16, budgetFrac float64) {
		n := 1 + int(nCPU)%12
		if math.IsNaN(budgetFrac) || math.IsInf(budgetFrac, 0) {
			budgetFrac = 0.5
		}
		budgetFrac = math.Mod(math.Abs(budgetFrac), 1.5)
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		if seed%2 != 0 {
			cfg.Table = power.Section5Table()
		}
		table := cfg.Table
		nf := table.Len()
		fmax := table.FrequencyAtIndex(nf - 1)

		// Row i is unpredicted when its invalid bit is set (idle and
		// counterless alternate), a copy of row 0's observation when its
		// dup bit is set (an exact tie at every index), random otherwise.
		shared := uint64(rng.Intn(80_000))
		procs := make([]invariant.Proc, n)
		desired := make([]int, n)
		var floorPow, desirePow units.Power
		for i := range procs {
			procs[i].CPU = i
			switch {
			case invalid>>uint(i)&1 == 1:
				procs[i].Idle = i%2 == 0
			case i == 0 || dup>>uint(i)&1 == 1:
				procs[i].Obs = obs(fmax, shared)
			default:
				procs[i].Obs = obs(fmax, uint64(rng.Intn(80_000)))
			}
			desired[i] = rng.Intn(nf)
			procs[i].DesiredIdx, procs[i].ActualIdx = desired[i], desired[i]
			floorPow += table.PowerAtIndex(0)
			desirePow += table.PowerAtIndex(desired[i])
		}
		budget := units.Watts(floorPow.W()*0.9 + budgetFrac*(desirePow.W()*1.1-floorPow.W()*0.9))

		// The checker-owned grid (NewPass decomposes the observations
		// itself) is the one grid all three statements read.
		g := mustPass(t, cfg, budget, procs, nil, 0, true).Grid()
		lossAt := func(cpu, fi int) float64 {
			if !g.Valid(cpu) {
				return 0
			}
			return g.Loss(cpu, fi)
		}

		idx := append([]int(nil), desired...)
		demotions, met := fvsst.FitToBudgetGrid(g, idx, table, budget, nil)

		greedy := optimal.Greedy(optimal.Problem{Table: table, Budget: budget, Upper: desired, Loss: lossAt})
		if greedy.Feasible != met {
			t.Fatalf("optimal.Greedy feasible=%v, FitToBudgetGrid met=%v", greedy.Feasible, met)
		}
		for i := range idx {
			if greedy.Idx[i] != idx[i] {
				t.Fatalf("cpu %d: optimal.Greedy reaches idx %d, FitToBudgetGrid %d", i, greedy.Idx[i], idx[i])
			}
		}

		// The log must walk desired→idx one table step at a time, each loss
		// bit-equal to the cell that was compared.
		at := append([]int(nil), desired...)
		for k, d := range demotions {
			from := at[d.CPU]
			if from == 0 || d.From != table.FrequencyAtIndex(from) || d.To != table.FrequencyAtIndex(from-1) {
				t.Fatalf("demotion %d: cpu%d %v→%v does not step down from idx %d", k, d.CPU, d.From, d.To, from)
			}
			if want := lossAt(d.CPU, from-1); math.Float64bits(d.PredictedLoss) != math.Float64bits(want) {
				t.Fatalf("demotion %d: cpu%d logged loss %b, grid cell %b", k, d.CPU, d.PredictedLoss, want)
			}
			at[d.CPU]--
		}
		var charged units.Power
		for i := range procs {
			if at[i] != idx[i] {
				t.Fatalf("cpu %d: demotion log ends at idx %d, assignment at %d", i, at[i], idx[i])
			}
			procs[i].ActualIdx = idx[i]
			procs[i].Voltage = table.VoltageAtIndex(idx[i])
			charged += table.PowerAtIndex(idx[i])
		}

		// The oracle replays the rule on its own and compares met, the
		// demotion sequence and the final indices.
		p := mustPass(t, cfg, budget, procs, demotions, charged, met)
		if vs := (invariant.StepTwoReplay{}).Check(p); len(vs) != 0 {
			t.Fatalf("StepTwoReplay disagrees with FitToBudgetGrid: %v", vs)
		}
	})
}
