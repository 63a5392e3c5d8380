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

// StepTwoOptimal checks Step 2's near-optimality against the exact DP
// comparator in internal/optimal on every pass — the upgrade of
// StepTwoBruteForce's small-grid enumeration to all grids (ROADMAP item
// 4). Same three facts:
//
//   - feasibility: met=true exactly when the all-floor assignment fits
//     the budget;
//   - comparator sanity: the greedy never beats the exact optimum;
//   - near-optimality: the greedy's total predicted loss is within Gap of
//     the optimum. Gap is empirical (see DefaultGap): the greedy can
//     strand a CPU on a cheap plateau while a one-shot deeper demotion
//     elsewhere was cheaper overall.
//
// StepTwoBruteForce remains as the independent differential witness for
// the comparator itself; the default suite runs this checker.
type StepTwoOptimal struct {
	// Gap bounds greedyLoss − optimalLoss. 0 means DefaultGap.
	Gap float64
}

func (c StepTwoOptimal) Check(p *Pass) []Violation { return c.check(p, p.Problem()) }

// check is Check over an explicit Problem (p.Problem() outside tests).
func (c StepTwoOptimal) check(p *Pass, prob optimal.Problem) []Violation {
	gap := c.Gap
	if gap <= 0 {
		gap = DefaultGap
	}
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
	sol, err := optimal.Solve(prob)
	if errors.Is(err, optimal.ErrTooLarge) {
		// Beyond the solver limits (only reachable on synthetic tables):
		// skip, never approximate — the replay and budget checkers still
		// cover the pass.
		return out
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
	g := p.Grid()
	greedyLoss := 0.0
	for i, pr := range p.Procs {
		if g.Valid(i) {
			greedyLoss += g.Loss(i, pr.ActualIdx)
		}
	}
	if greedyLoss < sol.Loss-tiny {
		out = append(out, Violation{"step2-optimal", p.At,
			fmt.Sprintf("greedy loss %g beats exact optimum %g (%s): comparator broken", greedyLoss, sol.Loss, sol.Method)})
	}
	if greedyLoss > sol.Loss+gap {
		out = append(out, Violation{"step2-optimal", p.At,
			fmt.Sprintf("greedy loss %g exceeds exact optimum %g by more than gap %g", greedyLoss, sol.Loss, gap)})
	}
	return out
}

// OptGap measures one pass's greedy-vs-optimal story for reporting (the
// `experiments optgap` table): the greedy's CPU-order loss sum, the exact
// optimum, and the unconstrained energy-per-instruction baseline. It
// returns ok=false when the pass is infeasible, empty, or beyond the
// solver limits — callers count those as unsolved rather than gap zero —
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
