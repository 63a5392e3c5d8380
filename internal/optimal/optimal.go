// Package optimal computes the true minimum-loss feasible frequency
// assignment for a scheduling-pass snapshot, as an exact comparator for
// the paper's greedy Step 2. The formulation follows the multiple-choice
// knapsack view of budget-constrained frequency selection (arXiv
// 1203.5160): each CPU i picks one table index idx_i ≤ Upper_i (its
// Step-1 desire), the predicted losses add, and the table powers must fit
// the budget:
//
//	minimise   Σ_i Loss(i, idx_i)
//	subject to Σ_i P(idx_i) ≤ Budget,   0 ≤ idx_i ≤ Upper_i.
//
// Solve runs a dynamic program over the Pareto frontier of exact
// (power, loss) prefix sums, pruned by the problem's own convex-hull
// relaxation with the greedy as incumbent, and re-checks the winner
// exactly. Table powers are whole watts (power.NewTable), so a stage's
// frontier holds at most one state per reachable integer power: Σ_{j≤i}
// (P(Upper_j) − P(0)) + 1 states after CPU i, at most 131·n + 1 after n
// CPUs of Table 1 — the multiple-choice knapsack's pseudo-polynomial
// bound. Past DefaultMaxFrontier states in one stage (over 500 CPUs on
// Table 1) Solve returns ErrTooLarge rather than approximate. The DP
// accumulates losses and powers in CPU order, exactly like the exhaustive
// enumerator bruteForce in diff_test.go, so on any instance the two agree
// on the optimal loss to the last bit — the differential tests pin this.
// EnergyOptimal is the unconstrained
// energy-per-instruction baseline of arXiv 1805.00998 for the same
// snapshot. See docs/optimality.md.
package optimal

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// Problem is one pass snapshot: the operating-point table, the power
// budget Step 2 had to meet, each CPU's Step-1 desired index (the upper
// bound Step 2 demotes from), and the predicted-loss surface. Loss must
// return 0 for CPUs without a usable prediction (idle or unobserved), the
// same convention Step 2 itself uses. IPC is only consulted by
// EnergyOptimal and may be nil otherwise.
type Problem struct {
	Table  *power.Table
	Budget units.Power
	Upper  []int
	Loss   func(cpu, fi int) float64
	IPC    func(cpu, fi int) float64
}

// FromGrid builds a Problem over a filled prediction grid, mapping
// invalid rows to zero loss exactly as Step 2 and the invariant checkers
// do. The grid's frequency set must be the table's (the scheduler
// guarantees this).
func FromGrid(g *perfmodel.PredGrid, upper []int, table *power.Table, budget units.Power) Problem {
	return Problem{
		Table:  table,
		Budget: budget,
		Upper:  upper,
		Loss: func(cpu, fi int) float64 {
			if !g.Valid(cpu) {
				return 0
			}
			return g.Loss(cpu, fi)
		},
		IPC: func(cpu, fi int) float64 {
			if !g.Valid(cpu) {
				return 0
			}
			return g.IPC(cpu, fi)
		},
	}
}

// Assignment is one solved frequency assignment. Loss and Power are the
// CPU-order sums over Idx — the same accumulation order every comparator
// in this repo uses, so equal assignments render to equal bytes.
//
// Bound is the convex-hull relaxation's optimum LP* (the Lagrangian dual
// at the critical multiplier), a lower bound on the optimal Loss to
// within Margin, the rounding allowance the DP's prune is derived with.
// Both are set by "dp" solves and zero otherwise; Relax computes the
// same pair without the DP.
type Assignment struct {
	Idx      []int
	Loss     float64
	Power    units.Power
	Feasible bool
	Method   string // "dp", "floor", "greedy" or "energy"
	States   int    // DP states kept
	Bound    float64
	Margin   float64
}

// DefaultMaxFrontier caps the DP's Pareto frontier per stage. Whole-watt
// powers keep a stage to its integer power spread plus one, so the cap
// binds only past 500 CPUs on Table 1.
const DefaultMaxFrontier = 1 << 16

// ErrTooLarge reports an instance whose DP frontier outgrew
// DefaultMaxFrontier. Callers never approximate: a gap report skips the
// pass, and the invariant checker reports it unless Relax's certificate
// already proved it.
var ErrTooLarge = errors.New("optimal: dp frontier exceeds its cap")

func (p *Problem) validate() error {
	if p.Table == nil {
		return errors.New("optimal: nil table")
	}
	if p.Loss == nil {
		return errors.New("optimal: nil loss function")
	}
	for i, u := range p.Upper {
		if u < 0 || u >= p.Table.Len() {
			return fmt.Errorf("optimal: cpu %d upper index %d outside table [0,%d)", i, u, p.Table.Len())
		}
	}
	return nil
}

// sums recomputes the CPU-order power and loss sums of an index vector.
func (p *Problem) sums(idx []int) (units.Power, float64) {
	var pow units.Power
	loss := 0.0
	for i, k := range idx {
		pow += p.Table.PowerAtIndex(k)
		loss += p.Loss(i, k)
	}
	return pow, loss
}

// Solve returns the minimum-loss feasible assignment, or ErrTooLarge past
// the frontier cap. When no assignment fits the budget — not even the
// all-floor one — it returns the floor assignment with Feasible=false,
// mirroring what Step 2 actuates in that case.
func Solve(p Problem) (Assignment, error) {
	if err := p.validate(); err != nil {
		return Assignment{}, err
	}
	idx := make([]int, len(p.Upper))
	if floorPow, floorLoss := p.sums(idx); floorPow > p.Budget {
		return Assignment{Idx: idx, Loss: floorLoss, Power: floorPow, Feasible: false, Method: "floor"}, nil
	}
	a, err := solveDP(&p, DefaultMaxFrontier)
	if err != nil {
		return Assignment{}, err
	}
	// Exact re-check: the winner must reproduce the solver's sums bit for
	// bit when recomputed from scratch — this catches any bookkeeping bug
	// in the frontier before a caller trusts the bound.
	pow, loss := p.sums(a.Idx)
	if pow != a.Power || math.Float64bits(loss) != math.Float64bits(a.Loss) || pow > p.Budget {
		return Assignment{}, fmt.Errorf("optimal: %s re-check failed: got (%v, %b), solver claimed (%v, %b)",
			a.Method, pow, loss, a.Power, a.Loss)
	}
	for i, k := range a.Idx {
		if k < 0 || k > p.Upper[i] {
			return Assignment{}, fmt.Errorf("optimal: %s re-check failed: cpu %d index %d outside [0,%d]",
				a.Method, i, k, p.Upper[i])
		}
	}
	return a, nil
}

// Greedy replays Step 2's published rule over the Problem — start at the
// desired indices, repeatedly demote the CPU whose next-lower point costs
// the least predicted loss, ties to the higher current index — and
// returns the assignment it reaches. It is the baseline every gap is
// measured against: a pure-function statement of the rule, independent of
// the one production body fvsst.FitToBudgetGrid and held bit-compatible
// with it by invariant.FuzzStepTwoAgreement.
func Greedy(p Problem) Assignment {
	idx := make([]int, len(p.Upper))
	copy(idx, p.Upper)
	met := demote(idx, p.Budget, p.Table.PowerAtIndex, p.Loss)
	pow, loss := p.sums(idx)
	return Assignment{Idx: idx, Loss: loss, Power: pow, Feasible: met, Method: "greedy"}
}

// demote is Greedy's rule in place: from the desired indices in idx it
// demotes the CPU whose next-lower point has the least loss, ties to the
// higher current index, until the CPU-order power sum fits the budget,
// and reports whether it did. solveDP runs it on its rows for the
// incumbent.
func demote(idx []int, budget units.Power, power func(k int) units.Power, loss func(cpu, k int) float64) bool {
	for {
		var sum units.Power
		for _, k := range idx {
			sum += power(k)
		}
		if sum <= budget {
			return true
		}
		best, bestLoss := -1, 0.0
		for i, k := range idx {
			if k == 0 {
				continue
			}
			if l := loss(i, k-1); best < 0 || l < bestLoss || (l == bestLoss && k > idx[best]) {
				best, bestLoss = i, l
			}
		}
		if best < 0 {
			return false
		}
		idx[best]--
	}
}

// EnergyOptimal is the energy-optimal-configuration baseline (arXiv
// 1805.00998): each CPU independently picks the table index minimising
// predicted energy per instruction P(k)/(IPC(i,k)·f_k), ignoring both the
// budget and the Step-1 desire. CPUs without a usable prediction (IPC ≤ 0
// everywhere, or no IPC function) sit at the floor — with no work
// attributed, the least power is the least energy. Feasible reports
// whether the resulting draw happens to fit the budget; the baseline is
// not constrained by it.
func EnergyOptimal(p Problem) (Assignment, error) {
	if err := p.validate(); err != nil {
		return Assignment{}, err
	}
	n := len(p.Upper)
	idx := make([]int, n)
	for i := 0; i < n; i++ {
		best, bestEPI := 0, math.Inf(1)
		for k := 0; k < p.Table.Len(); k++ {
			ipc := 0.0
			if p.IPC != nil {
				ipc = p.IPC(i, k)
			}
			if ipc <= 0 {
				continue
			}
			epi := p.Table.PowerAtIndex(k).W() / (ipc * p.Table.FrequencyAtIndex(k).Hz())
			if epi < bestEPI {
				best, bestEPI = k, epi
			}
		}
		idx[i] = best
	}
	pow, loss := p.sums(idx)
	return Assignment{Idx: idx, Loss: loss, Power: pow, Feasible: pow <= p.Budget, Method: "energy"}, nil
}
