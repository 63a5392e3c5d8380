package optimal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/power"
	"repro/internal/units"
)

// solveDPSort is the sort-based body solveDP shipped with until its
// stages became a k-way merge, kept verbatim as the merge's oracle: every
// candidate of a stage is materialised, sorted by the total order (power,
// loss, prev, choice) and scanned for the Pareto frontier. solveDP must
// return the same Idx, Loss bits, Power, States and error on any instance.
func solveDPSort(p *Problem, lim Limits) (Assignment, error) {
	n := len(p.Upper)
	stages := make([][]state, n+1)
	stages[0] = []state{{prev: -1, choice: -1}}
	kept := 1
	cand := []state(nil)
	for i := 0; i < n; i++ {
		prevFrontier := stages[i]
		cand = cand[:0]
		for pi, ps := range prevFrontier {
			for k := 0; k <= p.Upper[i]; k++ {
				pow := ps.power + p.Table.PowerAtIndex(k)
				if pow > p.Budget {
					continue
				}
				cand = append(cand, state{
					power:  pow,
					loss:   ps.loss + p.Loss(i, k),
					prev:   int32(pi),
					choice: int32(k),
				})
			}
		}
		// Deterministic total order: power, then loss, then the canonical
		// (prev, choice) pair, so ties always keep the same witness.
		sort.Slice(cand, func(a, b int) bool {
			ca, cb := cand[a], cand[b]
			if ca.power != cb.power {
				return ca.power < cb.power
			}
			if ca.loss != cb.loss {
				return ca.loss < cb.loss
			}
			if ca.prev != cb.prev {
				return ca.prev < cb.prev
			}
			return ca.choice < cb.choice
		})
		frontier := cand[:0:0]
		bestLoss := 0.0
		for ci, c := range cand {
			if ci == 0 || c.loss < bestLoss {
				frontier = append(frontier, c)
				bestLoss = c.loss
			}
		}
		if len(frontier) > lim.MaxFrontier {
			return Assignment{}, errFrontier
		}
		stages[i+1] = frontier
		kept += len(frontier)
	}
	final := stages[n]
	if len(final) == 0 {
		// SolveLimits already handled the infeasible case; an empty final
		// frontier can only mean the floor fits but every extension was
		// dropped, which cannot happen (the all-floor path survives).
		return Assignment{}, errors.New("optimal: dp lost the floor assignment")
	}
	// Loss is strictly decreasing along the frontier, so the minimum sits
	// at the end; scan anyway so the invariant is not load-bearing.
	best := 0
	for si := range final {
		if final[si].loss < final[best].loss {
			best = si
		}
	}
	idx := make([]int, n)
	si := int32(best)
	for i := n - 1; i >= 0; i-- {
		s := stages[i+1][si]
		idx[i] = int(s.choice)
		si = s.prev
	}
	return Assignment{
		Idx:      idx,
		Loss:     final[best].loss,
		Power:    final[best].power,
		Feasible: true,
		Method:   "dp",
		States:   kept,
	}, nil
}

// DiffSortOracle solves p with the shipped merge and with the sort oracle
// and reports the first field on which they disagree. Exported for the
// external test package (FuzzOptimalAssign's oracle arm).
func DiffSortOracle(p Problem, lim Limits) error {
	got, gotErr := solveDP(&p, lim)
	want, wantErr := solveDPSort(&p, lim)
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, errFrontier) != errors.Is(wantErr, errFrontier) {
		return fmt.Errorf("merge error %v, sort oracle error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if !slices.Equal(got.Idx, want.Idx) {
		return fmt.Errorf("merge witness %v, sort oracle %v", got.Idx, want.Idx)
	}
	if math.Float64bits(got.Loss) != math.Float64bits(want.Loss) || got.Power != want.Power || got.States != want.States {
		return fmt.Errorf("merge (loss %b, power %v, states %d), sort oracle (loss %b, power %v, states %d)",
			got.Loss, got.Power, got.States, want.Loss, want.Power, want.States)
	}
	return nil
}

// Table families for the oracle differential. Random-float steps keep
// prefix powers distinct (long frontiers); whole-watt and 0.1 W steps make
// many prefixes collide on one power, the second also through rounding.
const (
	tableFloat = iota
	tableWatt
	tableTenth
	tableFamilies
)

// Loss-row families: dense random floats, losses quantised to 1/8 (equal
// losses at equal powers exercise the (prev, choice) tie order), and
// all-zero rows (CPUs without a prediction).
const (
	lossDense = iota
	lossQuantised
	lossZero
	lossFamilies
)

func oracleTable(rng *rand.Rand, family, nf int) *power.Table {
	pts := make([]power.OperatingPoint, nf)
	w, tenths := 0.0, 0
	for i := range pts {
		switch family {
		case tableFloat:
			w += 0.5 + rng.Float64()*50
		case tableWatt:
			w += float64(1 + rng.Intn(12))
		case tableTenth:
			tenths += 1 + rng.Intn(3)
			w = float64(tenths) / 10
		}
		pts[i] = power.OperatingPoint{
			F: units.MHz(100 * float64(i+1)),
			V: units.Volts(1 + 0.1*float64(i)),
			P: units.Watts(w),
		}
	}
	return power.MustTable(pts)
}

// oracleProblem draws an instance whose all-floor assignment fits the
// budget (solveDP's precondition; SolveLimits answers the rest itself).
func oracleProblem(rng *rand.Rand, tableFamily, lossFamily, maxCPU, maxFreq int) Problem {
	n, nf := 1+rng.Intn(maxCPU), 1+rng.Intn(maxFreq)
	table := oracleTable(rng, tableFamily, nf)
	upper := make([]int, n)
	losses := make([][]float64, n)
	for i := range upper {
		upper[i] = rng.Intn(nf)
		losses[i] = make([]float64, nf)
		for k := range losses[i] {
			switch lossFamily {
			case lossDense:
				losses[i][k] = rng.Float64()
			case lossQuantised:
				losses[i][k] = float64(rng.Intn(9)) / 8
			}
		}
	}
	p := Problem{
		Table: table,
		Upper: upper,
		Loss:  func(cpu, fi int) float64 { return losses[cpu][fi] },
	}
	floor, _ := p.sums(make([]int, n))
	top, _ := p.sums(upper)
	p.Budget = floor + units.Watts(rng.Float64()*1.1*(top-floor).W())
	return p
}

// TestSolveDPMatchesSortOracle pins the merge to the sort body it
// replaced, on every table family × loss family, with the default cap and
// with caps small enough to trip errFrontier mid-solve.
func TestSolveDPMatchesSortOracle(t *testing.T) {
	for tf := 0; tf < tableFamilies; tf++ {
		for lf := 0; lf < lossFamilies; lf++ {
			solved, capped := 0, 0
			for seed := int64(1); seed <= 400; seed++ {
				rng := rand.New(rand.NewSource(seed<<8 | int64(tf<<4|lf)))
				p := oracleProblem(rng, tf, lf, 10, 12)
				for _, lim := range []Limits{{MaxFrontier: DefaultMaxFrontier}, {MaxFrontier: 1 + rng.Intn(40)}} {
					if err := DiffSortOracle(p, lim); err != nil {
						t.Fatalf("table family %d, loss family %d, seed %d, cap %d: %v", tf, lf, seed, lim.MaxFrontier, err)
					}
					if _, err := solveDP(&p, lim); err == nil {
						solved++
					} else if errors.Is(err, errFrontier) {
						capped++
					} else {
						t.Fatalf("table family %d, loss family %d, seed %d: %v", tf, lf, seed, err)
					}
				}
			}
			// Zero losses keep every frontier at one state, so no cap trips.
			if solved < 400 || (capped < 20 && lf != lossZero) {
				t.Fatalf("table family %d, loss family %d: %d solved, %d capped — regenerate the instance mix", tf, lf, solved, capped)
			}
		}
	}
}

// TestSolveDPEqualPowerAlongRun is the case a merge that looked only at
// run heads would get wrong: on a 0.1 W-step table two neighbouring
// frontier states, one ulp apart, round onto the same power under the
// same choice, so one run holds two candidates of one power and the later
// one (the lower loss) must win the group.
func TestSolveDPEqualPowerAlongRun(t *testing.T) {
	table := power.MustTable([]power.OperatingPoint{
		{F: units.MHz(100), V: units.Volts(1.0), P: units.Watts(0.1)},
		{F: units.MHz(200), V: units.Volts(1.1), P: units.Watts(0.4)},
	})
	lo, hi := table.PowerAtIndex(0), table.PowerAtIndex(1)
	a, b := (lo+hi)+lo, (lo+lo)+hi // prefixes (0,1,0) and (0,0,1)
	if !(a < b) || a+hi != b+hi {
		t.Fatalf("prefixes %b and %b no longer collide under +%v; pick another table", a.W(), b.W(), hi)
	}
	// Eighths add exactly. After cpu2 the frontier is (0.3 W, 0.75),
	// (a, 0.625), (b, 0.375), (0.9 W, 0.25); cpu3's choice 1 then puts
	// 0.625 and 0.375 on one power, and 0.375 is the optimum.
	losses := [][]float64{{0, 0}, {0.25, 0.125}, {0.5, 0.125}, {0.25, 0}}
	p := Problem{
		Table:  table,
		Budget: a + hi,
		Upper:  []int{0, 1, 1, 1},
		Loss:   func(cpu, fi int) float64 { return losses[cpu][fi] },
	}
	if err := DiffSortOracle(p, Limits{MaxFrontier: DefaultMaxFrontier}); err != nil {
		t.Fatal(err)
	}
	sol, err := SolveLimits(p, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 1, 1}; !slices.Equal(sol.Idx, want) || sol.Loss != 0.375 || sol.Power != a+hi || sol.States != 1+1+2+4+4 {
		t.Fatalf("got %+v, want idx %v, loss 0.375, power %v, 12 states", sol, want, a+hi)
	}
}

// table1Problem is bench/'s optimal.dp_us_16x16 instance generalised to n
// CPUs: every CPU free over the whole of Table 1, 60 % of maximum power.
func table1Problem(n int) Problem {
	table := power.PaperTable1()
	nf := table.Len()
	p := Problem{
		Table:  table,
		Budget: units.Watts(float64(n) * table.PowerAtIndex(nf-1).W() * 0.6),
		Upper:  make([]int, n),
		Loss: func(cpu, fi int) float64 {
			return (0.04 + 0.012*float64((cpu*7)%5)) * float64(nf-1-fi) / float64(nf-1)
		},
	}
	for i := range p.Upper {
		p.Upper[i] = nf - 1
	}
	return p
}

func BenchmarkSolveDP(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("%dx16", n), func(b *testing.B) {
			p := table1Problem(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solveDP(&p, Limits{MaxFrontier: DefaultMaxFrontier}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSolveDPAllocs pins the kernel's allocations: five fixed slices and
// the witness, plus the arena's doublings — logarithmic in the states
// kept (10 889 at 16 CPUs make 13 allocations, 198 841 at 64 make 16),
// where the sort body's per-stage frontiers and candidate regrowth made
// 243 and 1140. The bound is loose because a race-detector build does
// not elide slices.Grow's temporary and counts each doubling twice (21
// and 25).
func TestSolveDPAllocs(t *testing.T) {
	for _, n := range []int{16, 64} {
		p := table1Problem(n)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := solveDP(&p, Limits{MaxFrontier: DefaultMaxFrontier}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("%d CPUs: %v allocations per solve, want ≤ 32", n, allocs)
		}
	}
}
