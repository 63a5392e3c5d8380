package optimal_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/optimal"
	"repro/internal/units"
)

// FuzzOptimalAssign drives Solve over randomized instances and checks
// the four properties that make it a trustworthy comparator:
//
//  1. feasibility — a feasible result's power fits the budget and every
//     index respects its upper bound (the in-solver re-check enforces
//     the bits; the fuzz target re-asserts from outside);
//  2. never worse than greedy — the greedy assignment is in the feasible
//     set, so the optimum's loss cannot exceed it;
//  3. permutation invariance — relabelling CPUs changes only the float
//     accumulation order, so the optimal loss moves by rounding at most
//     (and feasibility not at all);
//  4. the sort oracle — the DP's pruned merge kernel agrees with the
//     unpruned sort-based body it replaced (dp_oracle_test.go) on
//     witness, loss bits, power and error and keeps no more states, at
//     the default frontier cap and at a small one;
//  5. the certificate — the relaxation bound sits below the optimum, to
//     within its margin, and Relax returns the solve's Bound and Margin
//     bits;
//  6. brute force — where the instance has at most 2^14 assignments, the
//     optimal loss is bruteForce's to the bit.
func FuzzOptimalAssign(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), 0.5)
	f.Add(int64(42), uint8(1), uint8(8), 0.0)
	f.Add(int64(7), uint8(6), uint8(3), 1.0)
	f.Add(int64(1234), uint8(4), uint8(16), 0.25)
	f.Add(int64(-9), uint8(8), uint8(2), 0.9)
	f.Fuzz(func(t *testing.T, seed int64, nCPU, nFreq uint8, budgetFrac float64) {
		n := 1 + int(nCPU)%8
		nf := 1 + int(nFreq)%10
		if math.IsNaN(budgetFrac) || math.IsInf(budgetFrac, 0) {
			budgetFrac = 0.5
		}
		budgetFrac = math.Mod(math.Abs(budgetFrac), 1.5)
		rng := rand.New(rand.NewSource(seed))
		table := randTable(rng, nf)
		upper := make([]int, n)
		losses := make([][]float64, n)
		for i := range upper {
			upper[i] = rng.Intn(nf)
			losses[i] = make([]float64, nf)
			for k := range losses[i] {
				losses[i][k] = rng.Float64()
			}
		}
		var floorPow, maxPow units.Power
		for _, u := range upper {
			floorPow += table.PowerAtIndex(0)
			maxPow += table.PowerAtIndex(u)
		}
		budget := units.Watts(floorPow.W()*0.9 + budgetFrac*(maxPow.W()*1.1-floorPow.W()*0.9))
		p := optimal.Problem{
			Table:  table,
			Budget: budget,
			Upper:  upper,
			Loss:   func(cpu, fi int) float64 { return losses[cpu][fi] },
		}

		sol, err := optimal.Solve(p)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if len(sol.Idx) != n {
			t.Fatalf("got %d indices for %d CPUs", len(sol.Idx), n)
		}
		var pow units.Power
		for i, k := range sol.Idx {
			if k < 0 || k > upper[i] {
				t.Fatalf("cpu %d index %d outside [0,%d]", i, k, upper[i])
			}
			pow += table.PowerAtIndex(k)
		}
		if sol.Feasible && pow > budget {
			t.Fatalf("feasible result draws %v over budget %v", pow, budget)
		}

		if sol.Feasible { // the floor fits: the DP kernel's precondition
			for _, maxFrontier := range []int{optimal.DefaultMaxFrontier, 1 + int(nFreq)%40} {
				if err := optimal.DiffSortOracle(p, maxFrontier); err != nil {
					t.Fatalf("frontier cap %d: %v", maxFrontier, err)
				}
			}
		}

		g := optimal.Greedy(p)
		if sol.Feasible != g.Feasible {
			t.Fatalf("Solve feasible=%v but greedy feasible=%v", sol.Feasible, g.Feasible)
		}
		if sol.Feasible && sol.Loss > g.Loss {
			t.Fatalf("optimum %g worse than greedy %g", sol.Loss, g.Loss)
		}
		if sol.Feasible && sol.Bound > sol.Loss+sol.Margin {
			t.Fatalf("relaxation bound %v above the optimum %v (margin %v)", sol.Bound, sol.Loss, sol.Margin)
		}
		if sol.Feasible {
			bound, margin, err := optimal.Relax(p)
			if err != nil || math.Float64bits(bound) != math.Float64bits(sol.Bound) || math.Float64bits(margin) != math.Float64bits(sol.Margin) {
				t.Fatalf("Relax (%b, %b, %v), Solve (%b, %b)", bound, margin, err, sol.Bound, sol.Margin)
			}
		}
		assignments := 1
		for _, u := range upper {
			assignments *= u + 1
		}
		if assignments <= 1<<14 {
			best, found := bruteForce(p, losses)
			if found != sol.Feasible || found && math.Float64bits(best) != math.Float64bits(sol.Loss) {
				t.Fatalf("Solve (feasible %v, loss %b), brute force (found %v, loss %b)", sol.Feasible, sol.Loss, found, best)
			}
		}

		// Permute CPUs: same instance, relabelled. Feasibility must match
		// exactly; the loss may move only by accumulation-order rounding.
		perm := rng.Perm(n)
		permUpper := make([]int, n)
		for i, from := range perm {
			permUpper[i] = upper[from]
		}
		pp := optimal.Problem{
			Table:  table,
			Budget: budget,
			Upper:  permUpper,
			Loss:   func(cpu, fi int) float64 { return losses[perm[cpu]][fi] },
		}
		psol, err := optimal.Solve(pp)
		if err != nil {
			t.Fatalf("Solve(permuted): %v", err)
		}
		if psol.Feasible != sol.Feasible {
			t.Fatalf("permutation flipped feasibility: %v vs %v", psol.Feasible, sol.Feasible)
		}
		if sol.Feasible {
			tol := 1e-9 * math.Max(1, math.Abs(sol.Loss))
			if math.Abs(psol.Loss-sol.Loss) > tol {
				t.Fatalf("permutation moved the optimum beyond rounding: %g vs %g", psol.Loss, sol.Loss)
			}
		}
	})
}
