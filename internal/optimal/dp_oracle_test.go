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
// stages became a k-way merge, kept verbatim as the oracle of the merge
// and of the relaxation prune: every candidate of a stage is
// materialised, sorted by the total order (power, loss, prev, choice) and
// scanned for the unpruned Pareto frontier. solveDP must return the same
// Idx, Loss bits and Power on any instance, keeping no more States.
func solveDPSort(p *Problem, maxFrontier int) (Assignment, error) {
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
		if len(frontier) > maxFrontier {
			return Assignment{}, ErrTooLarge
		}
		stages[i+1] = frontier
		kept += len(frontier)
	}
	final := stages[n]
	if len(final) == 0 {
		// Solve already handled the infeasible case; an empty final
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
// and reports the first field on which they disagree: the witness, the
// Loss bits, the Power, more States than the oracle kept, or the error.
// The pruned frontier is a subset of the unpruned one, so it trips a cap
// only where the oracle does; where only the pruned solve fits under the
// cap, it is held to the uncapped oracle. Exported for the external test
// package (FuzzOptimalAssign's oracle arm).
func DiffSortOracle(p Problem, maxFrontier int) error {
	got, gotErr := solveDP(&p, maxFrontier)
	want, wantErr := solveDPSort(&p, maxFrontier)
	if gotErr == nil && errors.Is(wantErr, ErrTooLarge) {
		want, wantErr = solveDPSort(&p, math.MaxInt)
	}
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrTooLarge) != errors.Is(wantErr, ErrTooLarge) {
		return fmt.Errorf("merge error %v, sort oracle error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if !slices.Equal(got.Idx, want.Idx) {
		return fmt.Errorf("merge witness %v, sort oracle %v", got.Idx, want.Idx)
	}
	if math.Float64bits(got.Loss) != math.Float64bits(want.Loss) || got.Power != want.Power || got.States > want.States {
		return fmt.Errorf("merge (loss %b, power %v, states %d), sort oracle (loss %b, power %v, states %d)",
			got.Loss, got.Power, got.States, want.Loss, want.Power, want.States)
	}
	return nil
}

// Table families for the oracle differential, both whole watts as
// power.NewTable demands. Steps of 1 to 5000 W keep prefix powers
// distinct (long frontiers); steps of 1 to 12 W make many prefixes
// collide on one power.
const (
	tableWide = iota
	tableWatt
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
	step, w := 5000, 0
	if family == tableWatt {
		step = 12
	}
	for i := range pts {
		w += 1 + rng.Intn(step)
		pts[i] = power.OperatingPoint{
			F: units.MHz(100 * float64(i+1)),
			V: units.Volts(1 + 0.1*float64(i)),
			P: units.Watts(float64(w)),
		}
	}
	return power.MustTable(pts)
}

// oracleProblem draws an instance whose all-floor assignment fits the
// budget (solveDP's precondition; Solve answers the rest itself).
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

// TestSolveDPMatchesSortOracle pins the pruned merge to the unpruned sort
// body it replaced, on every table family × loss family, with the default
// cap and with caps small enough to trip ErrTooLarge mid-solve.
func TestSolveDPMatchesSortOracle(t *testing.T) {
	for tf := 0; tf < tableFamilies; tf++ {
		for lf := 0; lf < lossFamilies; lf++ {
			solved, capped := 0, 0
			for seed := int64(1); seed <= 400; seed++ {
				rng := rand.New(rand.NewSource(seed<<8 | int64(tf<<4|lf)))
				p := oracleProblem(rng, tf, lf, 10, 12)
				for _, maxFrontier := range []int{DefaultMaxFrontier, 1 + rng.Intn(40)} {
					if err := DiffSortOracle(p, maxFrontier); err != nil {
						t.Fatalf("table family %d, loss family %d, seed %d, cap %d: %v", tf, lf, seed, maxFrontier, err)
					}
					if _, err := solveDP(&p, maxFrontier); err == nil {
						solved++
					} else if errors.Is(err, ErrTooLarge) {
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

// TestRelaxMatchesSolve pins Relax to the DP's own relaxation: on every
// table family × loss family, and on Table 1, Relax returns the Bound
// and Margin bits a "dp" solve reports, and the greedy's loss — a
// fitting assignment's — is at least Bound − Margin.
func TestRelaxMatchesSolve(t *testing.T) {
	var problems []Problem
	for tf := 0; tf < tableFamilies; tf++ {
		for lf := 0; lf < lossFamilies; lf++ {
			for seed := int64(1); seed <= 200; seed++ {
				rng := rand.New(rand.NewSource(seed<<8 | int64(tf<<4|lf)))
				problems = append(problems, oracleProblem(rng, tf, lf, 10, 12))
			}
		}
	}
	for _, n := range []int{1, 16, 64} {
		problems = append(problems, table1Problem(n))
	}
	for pi, p := range problems {
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("problem %d: %v", pi, err)
		}
		bound, margin, err := Relax(p)
		if err != nil {
			t.Fatalf("problem %d: Relax: %v", pi, err)
		}
		if math.Float64bits(bound) != math.Float64bits(sol.Bound) || math.Float64bits(margin) != math.Float64bits(sol.Margin) {
			t.Fatalf("problem %d: Relax (%b, %b), Solve (%b, %b)", pi, bound, margin, sol.Bound, sol.Margin)
		}
		if g := Greedy(p); !(g.Loss >= bound-margin) {
			t.Fatalf("problem %d: greedy loss %v below the bound %v less margin %v", pi, g.Loss, bound, margin)
		}
	}
	if _, _, err := Relax(Problem{Upper: []int{0}}); err == nil {
		t.Fatal("Relax accepted a nil table")
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
				if _, err := solveDP(&p, DefaultMaxFrontier); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSolveDPAllocs pins the kernel's allocations: the float and int
// slabs (rows, hulls and thresholds included), the runs, the arena and
// the witness (the stage offsets share its slab), plus the arena's doublings — logarithmic in the states
// kept (4 297 at 16 CPUs make 10 allocations, 76 062 at 64 make 14),
// where the unpruned merge kept 10 889 and 198 841 in 13 and 16, and the
// sort body's per-stage frontiers and candidate regrowth made 243 and
// 1140. A race-detector build does not elide slices.Grow's temporary and
// counts most doublings twice (15 and 22), hence the bound.
func TestSolveDPAllocs(t *testing.T) {
	for _, n := range []int{16, 64} {
		p := table1Problem(n)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := solveDP(&p, DefaultMaxFrontier); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 24 {
			t.Errorf("%d CPUs: %v allocations per solve, want ≤ 24", n, allocs)
		}
	}
}

// TestSolveDPPruneHalvesTable1 pins the prune's reach on bench/'s
// optimal.dp_us_16x16 instance: the answer is the oracle's and fewer
// than half its 10 889 states are kept.
func TestSolveDPPruneHalvesTable1(t *testing.T) {
	p := table1Problem(16)
	if err := DiffSortOracle(p, DefaultMaxFrontier); err != nil {
		t.Fatal(err)
	}
	got, _ := solveDP(&p, DefaultMaxFrontier)
	want, _ := solveDPSort(&p, DefaultMaxFrontier)
	if 2*got.States >= want.States {
		t.Fatalf("pruned solve keeps %d of the oracle's %d states, want under half", got.States, want.States)
	}
}

// TestSolveDPPruneKeepsTightWitness is the prune at equality. Both loss
// rows are linear in power, so the relaxation is integral: the greedy is
// optimal and LP* meets the incumbent exactly (dyadic values, no
// rounding). Every prefix of the optimum then sits exactly on its stage's
// bound less the margin, and the strict test must keep it.
func TestSolveDPPruneKeepsTightWitness(t *testing.T) {
	table := power.MustTable([]power.OperatingPoint{
		{F: units.MHz(100), V: units.Volts(1.0), P: units.Watts(1)},
		{F: units.MHz(200), V: units.Volts(1.1), P: units.Watts(2)},
		{F: units.MHz(300), V: units.Volts(1.2), P: units.Watts(3)},
		{F: units.MHz(400), V: units.Volts(1.3), P: units.Watts(4)},
	})
	// 0.25 and 1 per watt: the greedy demotes cpu0 twice, (3,3) → (1,3),
	// the relaxation's critical multiplier is cpu0's 0.25, and LP* = 0.5.
	losses := [][]float64{{0.75, 0.5, 0.25, 0}, {3, 2, 1, 0}}
	p := Problem{
		Table:  table,
		Budget: units.Watts(6),
		Upper:  []int{3, 3},
		Loss:   func(cpu, fi int) float64 { return losses[cpu][fi] },
	}
	g := Greedy(p)
	if !slices.Equal(g.Idx, []int{1, 3}) || g.Loss != 0.5 {
		t.Fatalf("greedy %+v, want idx [1 3] at loss 0.5", g)
	}
	if err := DiffSortOracle(p, DefaultMaxFrontier); err != nil {
		t.Fatal(err)
	}
	sol, err := solveDP(&p, DefaultMaxFrontier)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sol.Idx, g.Idx) || sol.Loss != g.Loss || sol.Bound != g.Loss {
		t.Fatalf("got %+v, want the greedy's witness %v with loss and bound %v", sol, g.Idx, g.Loss)
	}
	if want, _ := solveDPSort(&p, DefaultMaxFrontier); sol.States >= want.States {
		t.Fatalf("prune kept %d of the oracle's %d states; the instance no longer prunes", sol.States, want.States)
	}
}

// TestSolveTooLarge: a frontier past the cap ends the solve with
// ErrTooLarge, never an approximate answer.
func TestSolveTooLarge(t *testing.T) {
	p := table1Problem(4)
	if _, err := solveDP(&p, 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("cap 1: got %v, want ErrTooLarge", err)
	}
	if _, err := solveDP(&p, DefaultMaxFrontier); err != nil {
		t.Fatalf("default cap: %v", err)
	}
}

// wattSpreadBound is the frontier bound whole-watt tables give: after CPU
// i a stage holds at most one state per integer power from the floor sum
// to the top sum, Σ_{j≤i} (P(Upper_j) − P(0)) + 1, and the empty prefix
// is one more.
func wattSpreadBound(p *Problem) int {
	bound, spread := 1, 0
	for _, u := range p.Upper {
		spread += int((p.Table.PowerAtIndex(u) - p.Table.PowerAtIndex(0)).W())
		bound += spread + 1
	}
	return bound
}

// TestSolveDPFrontierWithinWattSpread tests the bound that lets the
// solver stop at its frontier cap: the pruned DP and the unpruned sort
// oracle both keep at most wattSpreadBound states, on Table 1, on the §5
// table and on random whole-watt tables. On 1 W steps with losses linear
// in power every integer power is on the frontier, and the oracle meets
// the bound exactly.
func TestSolveDPFrontierWithinWattSpread(t *testing.T) {
	var problems []Problem
	for _, n := range []int{1, 16, 32} {
		problems = append(problems, table1Problem(n))
	}
	s5 := table1Problem(24)
	s5.Table = power.Section5Table()
	for i := range s5.Upper {
		s5.Upper[i] = i % s5.Table.Len()
	}
	s5.Budget = s5.Table.SumAtIndices(s5.Upper) * 7 / 10
	problems = append(problems, s5)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		problems = append(problems, oracleProblem(rng, int(seed)%tableFamilies, lossDense, 10, 12))
	}
	for pi, p := range problems {
		bound := wattSpreadBound(&p)
		got, err := solveDP(&p, DefaultMaxFrontier)
		if err != nil {
			t.Fatalf("problem %d: %v", pi, err)
		}
		want, err := solveDPSort(&p, DefaultMaxFrontier)
		if err != nil {
			t.Fatalf("problem %d: sort oracle: %v", pi, err)
		}
		if got.States > bound || want.States > bound {
			t.Fatalf("problem %d: %d states kept, %d by the oracle, over the watt-spread bound %d", pi, got.States, want.States, bound)
		}
	}

	steps := power.MustTable([]power.OperatingPoint{
		{F: units.MHz(100), V: units.Volts(1.0), P: units.Watts(1)},
		{F: units.MHz(200), V: units.Volts(1.1), P: units.Watts(2)},
		{F: units.MHz(300), V: units.Volts(1.2), P: units.Watts(3)},
	})
	tight := Problem{
		Table:  steps,
		Budget: units.Watts(100),
		Upper:  []int{2, 1, 2, 2, 0, 2},
		Loss:   func(cpu, fi int) float64 { return float64(2 - fi) },
	}
	if o, _ := solveDPSort(&tight, DefaultMaxFrontier); o.States != wattSpreadBound(&tight) {
		t.Fatalf("1 W steps: oracle keeps %d states, want the bound %d", o.States, wattSpreadBound(&tight))
	}
}
