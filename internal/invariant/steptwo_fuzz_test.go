package invariant_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fvsst"
	"repro/internal/invariant"
	"repro/internal/optimal"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// Shape bits of FuzzStepTwoAgreement's last argument. The low three bits
// pick a poison kind; rows 1, 4, 7, … are then refilled from a
// decomposition no observation produces, planting loss cells the
// selection order has to survive.
const (
	poisonNone    = iota
	poisonNegZero // −0.0 next to the +0.0 of unpredicted rows
	poisonDip     // a loss row that is not monotone in the index
	poisonNaN     // a row of NaN
	poisonInf     // one +Inf cell mid-row

	shapeWide      = 1 << 3 // 200–455 CPUs instead of 1–12: a heap nine levels deep
	shapeWideSteps = 1 << 4 // the table's powers redrawn as whole watts, steps of 1–5000 W
)

// poisonRow returns the decomposition for a poison kind, the table index
// of the cell that carries the value it is named for, and the test for it.
func poisonRow(kind uint8, table *power.Table) (perfmodel.Decomposition, int, func(float64) bool) {
	mid := table.Len() / 2
	fMid := table.FrequencyAtIndex(mid).Hz()
	switch kind {
	case poisonNegZero:
		// Perf(f) = (1/−f)·f rounds to −1 at nearly every f, so the loss is
		// 0/−1 = −0.0 there.
		return perfmodel.Decomposition{StallSecPerInstr: -1}, 0,
			func(l float64) bool { return l == 0 && math.Signbit(l) }
	case poisonDip:
		// A pole between two settings: losses above 1 below it, negative
		// and rising to zero above it.
		pole := 0.5 * (fMid + table.FrequencyAtIndex(mid-1).Hz())
		return perfmodel.Decomposition{InvAlpha: 1, StallSecPerInstr: -1 / pole}, mid,
			func(l float64) bool { return l < 0 }
	case poisonNaN:
		return perfmodel.Decomposition{InvAlpha: math.NaN()}, mid, math.IsNaN
	default: // poisonInf: the pole exactly on a setting
		return perfmodel.Decomposition{InvAlpha: 1e-9 * fMid, StallSecPerInstr: -1e-9}, mid,
			func(l float64) bool { return math.IsInf(l, 1) }
	}
}

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
//
// The shape argument widens the draw to what the heap and the running stop
// test of FitToBudgetGrid can get wrong: hundreds of CPUs, a table of wide
// random whole-watt steps, and poisoned rows. StepTwoReplay decomposes its own
// grid from observations, so it sits poisoned runs out; optimal.Greedy
// reads the poisoned grid through its loss function. NaN and +Inf are the
// one place the statements differ by construction — the oracles start
// from "first CPU seen", production from "+Inf", so only production never
// steps onto such a cell — and there the run is checked against the rule
// itself: no logged step lands on one, and a pass that misses its budget
// leaves every CPU at the floor or directly above one.
func FuzzStepTwoAgreement(f *testing.F) {
	// testdata/fuzz holds the tie, all-invalid and infeasible seeds, and
	// one seed per shape bit and poison kind.
	f.Add(int64(1), uint8(5), uint16(0), uint16(0), 0.5, uint8(0))
	f.Add(int64(-5), uint8(0), uint16(0), uint16(0), 1.2, uint8(0)) // one CPU, desire fits
	f.Fuzz(func(t *testing.T, seed int64, nCPU uint8, invalid, dup uint16, budgetFrac float64, shape uint8) {
		n := 1 + int(nCPU)%12
		if shape&shapeWide != 0 {
			n = 200 + int(nCPU)
		}
		poison := shape & 7
		if poison > poisonInf {
			poison = poisonNone
		}
		if math.IsNaN(budgetFrac) || math.IsInf(budgetFrac, 0) {
			budgetFrac = 0.5
		}
		budgetFrac = math.Mod(math.Abs(budgetFrac), 1.5)
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		if seed%2 != 0 {
			cfg.Table = power.Section5Table()
		}
		if shape&shapeWideSteps != 0 {
			pts := cfg.Table.Points()
			w := 0
			for i := range pts {
				w += 1 + rng.Intn(5000)
				pts[i].P = units.Watts(float64(w))
			}
			cfg.Table = power.MustTable(pts)
		}
		table := cfg.Table
		nf := table.Len()
		fmax := table.FrequencyAtIndex(nf - 1)

		// Row i is unpredicted when its invalid bit is set (idle and
		// counterless alternate), a copy of row 0's observation when its
		// dup bit is set (an exact tie at every index), random otherwise;
		// rows past 15 reuse the sixteen bits in turn.
		shared := uint64(rng.Intn(80_000))
		procs := make([]invariant.Proc, n)
		desired := make([]int, n)
		var floorPow, desirePow units.Power
		for i := range procs {
			procs[i].CPU = i
			switch {
			case invalid>>uint(i%16)&1 == 1:
				procs[i].Idle = i%2 == 0
			case i == 0 || dup>>uint(i%16)&1 == 1:
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
		if poison != poisonNone {
			dec, cell, planted := poisonRow(poison, table)
			for i := 1; i < n; i += 3 {
				g.Fill(i, dec)
				if l := g.Loss(i, cell); !planted(l) {
					t.Fatalf("poison kind %d: row %d cell %d holds %v", poison, i, cell, l)
				}
			}
		}
		lossAt := func(cpu, fi int) float64 {
			if !g.Valid(cpu) {
				return 0
			}
			return g.Loss(cpu, fi)
		}
		// stuck: the rule offers no step down from idx.
		stuck := func(cpu, idx int) bool {
			return idx == 0 || !(lossAt(cpu, idx-1) < math.Inf(1))
		}

		idx := append([]int(nil), desired...)
		demotions, met := fvsst.FitToBudgetGrid(g, idx, table, budget, nil)

		if met || (poison != poisonNaN && poison != poisonInf) {
			greedy := optimal.Greedy(optimal.Problem{Table: table, Budget: budget, Upper: desired, Loss: func(cpu, fi int) float64 {
				// Last in the oracle's order, as "never" is in production's.
				if l := lossAt(cpu, fi); l < math.Inf(1) {
					return l
				}
				return math.MaxFloat64
			}})
			if greedy.Feasible != met {
				t.Fatalf("optimal.Greedy feasible=%v, FitToBudgetGrid met=%v", greedy.Feasible, met)
			}
			for i := range idx {
				if greedy.Idx[i] != idx[i] {
					t.Fatalf("cpu %d: optimal.Greedy reaches idx %d, FitToBudgetGrid %d", i, greedy.Idx[i], idx[i])
				}
			}
		}
		if !met {
			for i, want := range desired {
				for !stuck(i, want) {
					want--
				}
				if idx[i] != want {
					t.Fatalf("cpu %d: budget missed at idx %d, but the walk down from %d ends at %d", i, idx[i], desired[i], want)
				}
			}
		}

		// The log must walk desired→idx one table step at a time, each loss
		// bit-equal to the cell that was compared.
		at := append([]int(nil), desired...)
		for k, d := range demotions {
			from := at[d.CPU]
			if stuck(d.CPU, from) || d.From != table.FrequencyAtIndex(from) || d.To != table.FrequencyAtIndex(from-1) {
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
		if poison != poisonNone {
			return
		}
		p := mustPass(t, cfg, budget, procs, demotions, charged, met)
		if vs := (invariant.StepTwoReplay{}).Check(p); len(vs) != 0 {
			t.Fatalf("StepTwoReplay disagrees with FitToBudgetGrid: %v", vs)
		}
	})
}
