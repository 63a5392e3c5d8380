package invariant

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/optimal"
	"repro/internal/units"
)

// Problem converts the pass snapshot into the exact comparator's input:
// upper bounds from the Step-1 desired indices and the same zero-loss
// convention for unpredicted CPUs the checkers use. The returned Problem
// borrows the pass's grid, so solve it before the next pass overwrites
// the snapshot.
func (p *Pass) Problem() optimal.Problem {
	upper := make([]int, len(p.Procs))
	for i, pr := range p.Procs {
		upper[i] = pr.DesiredIdx
	}
	return optimal.FromGrid(p.Grid(), upper, p.Table, p.Budget)
}

// StepTwoOptimal checks Step 2's near-optimality on every pass:
// certificate first, then the exact DP from internal/optimal where the
// certificate cannot close. Three facts:
//
//   - feasibility: met=true exactly when the all-floor assignment fits
//     the budget;
//   - comparator sanity: Bound ≤ optimum ≤ greedy, within the solver's
//     Margin — the convex-hull relaxation's LP* (optimal.Relax) never
//     exceeds the exact optimum, which never exceeds the greedy;
//   - near-optimality: the greedy's total predicted loss is within
//     DefaultGap of the optimum. The bound is empirical: the greedy can
//     strand a CPU on a cheap plateau while a one-shot deeper demotion
//     elsewhere was cheaper overall.
//
// The certificate is the relaxation alone, O(n·k): the optimum is at
// least LP* − Margin, so a pass whose loss satisfies Bound ≤ loss +
// Margin (weak duality, which every assignment that fits the budget
// does) and loss − Bound + Margin ≤ DefaultGap is within the gap of the
// optimum, and the DP would pass it too. Any other pass runs the DP and
// its three checks. A pass the certificate cannot close and the DP cannot
// solve (optimal.ErrTooLarge) is a violation: its near-optimality is
// unproven, and it is never skipped.
//
// The DP itself is pinned bit-for-bit against an exhaustive enumeration
// in internal/optimal's tests; the default suite runs this checker.
type StepTwoOptimal struct{}

func (c StepTwoOptimal) Check(p *Pass) []Violation { return c.check(p, p.Problem()) }

// check is Check over an explicit Problem (p.Problem() outside tests).
// The pass's loss is read through prob's loss surface, which for
// p.Problem() is the grid's with the zero-loss convention: the same bits
// as summing the valid rows.
func (StepTwoOptimal) check(p *Pass, prob optimal.Problem) []Violation {
	n := len(p.Procs)
	var out []Violation
	var floorPower units.Power
	for i := 0; i < n; i++ {
		floorPower += p.Table.PowerAtIndex(0)
	}
	feasible := floorPower <= p.Budget
	if p.Met != feasible {
		out = append(out, Violation{"step2-optimal", p.At,
			fmt.Sprintf("met=%v but floor power %v vs budget %v implies feasible=%v",
				p.Met, floorPower, p.Budget, feasible)})
	}
	if !p.Met || n == 0 {
		return out
	}
	greedyLoss := 0.0
	for i, pr := range p.Procs {
		greedyLoss += prob.Loss(i, pr.ActualIdx)
	}
	bound, margin, err := optimal.Relax(prob)
	if err == nil && bound <= greedyLoss+margin && greedyLoss-bound+margin <= DefaultGap {
		return out
	}
	sol, err := optimal.Solve(prob)
	if errors.Is(err, optimal.ErrTooLarge) {
		return append(out, Violation{"step2-optimal", p.At,
			fmt.Sprintf("greedy loss %g is not certified within gap %g of its relaxation bound %g (margin %g), and the exact comparator is past its frontier cap",
				greedyLoss, DefaultGap, bound, margin)})
	}
	if err != nil {
		// Anything else is the comparator contradicting itself (its exact
		// re-check tripped), which must not pass for a skip.
		return append(out, Violation{"step2-optimal", p.At,
			fmt.Sprintf("exact comparator failed (%v): comparator broken", err)})
	}
	if !sol.Feasible {
		out = append(out, Violation{"step2-optimal", p.At,
			"met=true but the exact comparator found no feasible assignment"})
		return out
	}
	if sol.Bound > sol.Loss+sol.Margin {
		out = append(out, Violation{"step2-optimal", p.At,
			fmt.Sprintf("exact optimum %g below its relaxation bound %g by more than margin %g (%s): comparator broken",
				sol.Loss, sol.Bound, sol.Margin, sol.Method)})
	}
	if greedyLoss < sol.Loss-sol.Margin {
		out = append(out, Violation{"step2-optimal", p.At,
			fmt.Sprintf("greedy loss %g beats exact optimum %g (%s): comparator broken", greedyLoss, sol.Loss, sol.Method)})
	}
	if greedyLoss > sol.Loss+DefaultGap {
		out = append(out, Violation{"step2-optimal", p.At,
			fmt.Sprintf("greedy loss %g exceeds exact optimum %g by more than gap %g", greedyLoss, sol.Loss, DefaultGap)})
	}
	return out
}

// OptGap measures one pass's greedy-vs-optimal story for reporting (the
// `experiments optgap` table): the greedy's CPU-order loss sum, the exact
// optimum, and the unconstrained energy-per-instruction baseline. It
// returns ok=false when the pass is infeasible, empty, or past the DP's
// frontier cap — callers count those as unsolved rather than gap zero —
// and ok=false with the error when the comparator itself failed.
func (p *Pass) OptGap() (greedy, opt float64, energy optimal.Assignment, ok bool, err error) {
	return p.optGap(p.Problem())
}

// optGap is OptGap over an explicit Problem (p.Problem() outside tests).
func (p *Pass) optGap(prob optimal.Problem) (greedy, opt float64, energy optimal.Assignment, ok bool, err error) {
	if !p.Met || len(p.Procs) == 0 {
		return 0, 0, optimal.Assignment{}, false, nil
	}
	sol, err := optimal.Solve(prob)
	if errors.Is(err, optimal.ErrTooLarge) {
		return 0, 0, optimal.Assignment{}, false, nil
	}
	if err != nil || !sol.Feasible {
		return 0, 0, optimal.Assignment{}, false, err
	}
	g := p.Grid()
	for i, pr := range p.Procs {
		if g.Valid(i) {
			greedy += g.Loss(i, pr.ActualIdx)
		}
	}
	energyA, err := optimal.EnergyOptimal(prob)
	if err != nil {
		return 0, 0, optimal.Assignment{}, false, err
	}
	if math.IsNaN(greedy) || math.IsNaN(sol.Loss) {
		return 0, 0, optimal.Assignment{}, false, nil
	}
	return greedy, sol.Loss, energyA, true, nil
}
