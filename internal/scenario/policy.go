package scenario

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fvsst"
	"repro/internal/invariant"
	"repro/internal/optimal"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// Step-2 allocator names for PolicyKnobs.Allocator.
const (
	// AllocGreedy is the paper's Step 2: demote the least next-step loss.
	AllocGreedy = "greedy"
	// AllocUniform demotes the highest-frequency CPU first, loss-blind —
	// the naive budget fit the paper's greedy is measured against.
	AllocUniform = "uniform"
	// AllocOptimal assigns the exact minimum-loss feasible assignment
	// from internal/optimal every pass — the paper's counterfactual upper
	// bound, not a deployable policy (it assumes a solved pass).
	AllocOptimal = "optimal"
)

// PolicyKnobs re-runs a scenario under a perturbed scheduling policy:
// the counterfactual arm of the policy search. The zero value changes
// nothing; each knob replaces one decision ingredient while the
// workload, faults, budgets and seeds stay identical.
//
// Epsilon (>0) replaces the spec's Step-1 loss tolerance. Debounce
// semantics: a CPU's Step-1 choice must repeat for DebouncePasses
// consecutive passes before the held desire moves (first observation
// adopts immediately; Step 2 demotions are never debounced — budget
// safety cannot lag). Allocator swaps Step 2's budget fit.
type PolicyKnobs struct {
	Epsilon        float64 `json:"epsilon,omitempty"`
	DebouncePasses int     `json:"debounce_passes,omitempty"`
	Allocator      string  `json:"allocator,omitempty"`
}

func (k *PolicyKnobs) validate() error {
	if k == nil {
		return nil
	}
	if k.Epsilon < 0 || k.Epsilon >= 1 {
		return fmt.Errorf("scenario: policy epsilon %v outside [0,1)", k.Epsilon)
	}
	if k.DebouncePasses < 0 {
		return fmt.Errorf("scenario: policy debounce %d must be non-negative", k.DebouncePasses)
	}
	switch k.Allocator {
	case "", AllocGreedy, AllocUniform, AllocOptimal:
	default:
		return fmt.Errorf("scenario: unknown allocator %q", k.Allocator)
	}
	return nil
}

// rewrites reports whether the knobs need a post-pass rewrite (an ε-only
// override flows through the scheduler config instead, keeping the full
// checker suite valid).
func (k *PolicyKnobs) rewrites() bool {
	return k != nil && (k.DebouncePasses >= 2 || (k.Allocator != "" && k.Allocator != AllocGreedy))
}

// policyRewrite re-decides the pass core just scheduled under the policy
// knobs: Step-1 desires pass through the debounce filter, the chosen
// allocator replaces Step 2 over the grid that pass filled (core.Grid, so
// call it before the core's next pass), Step 3 re-reads the voltage
// table. The demotion log is dropped — replacement allocators have no
// least-loss demotion sequence to log. The pass goes in and out by value
// (its Assignments are rewritten in place): a pointer through a func
// value would move every round's PassResult to the heap.
type policyRewrite func(core *cluster.Core, inputs []cluster.ProcInput, pass cluster.PassResult, budget units.Power) (cluster.PassResult, error)

// policyState carries the rewrite's debounce streaks across passes, keyed
// by the trace identity (node name, CPU), not pass position, because
// partitions shrink the input vector.
type policyState struct {
	knobs   PolicyKnobs
	streaks map[procKey]debounce
}

type procKey struct {
	node string
	cpu  int
}

// debounce: a held Step-1 desire, the latest candidate and its streak.
type debounce struct{ held, last, run int }

// newPolicyRewrite returns the rewrite for k, or nil when the knobs need
// none (core.Schedule under k's ε already is the policy).
func newPolicyRewrite(k *PolicyKnobs) policyRewrite {
	if !k.rewrites() {
		return nil
	}
	st := &policyState{knobs: *k, streaks: map[procKey]debounce{}}
	return st.rewrite
}

func (st *policyState) rewrite(core *cluster.Core, inputs []cluster.ProcInput, pass cluster.PassResult, budget units.Power) (cluster.PassResult, error) {
	grid, table := core.Grid(), core.Config().Table
	desired := make([]int, len(inputs))
	for i, a := range pass.Assignments {
		desired[i] = table.IndexOf(a.Desired)
	}
	if k := st.knobs.DebouncePasses; k >= 2 {
		for i, in := range inputs {
			ref := procKey{in.Node, in.Proc.CPU}
			cand := desired[i]
			d, seen := st.streaks[ref]
			switch {
			case !seen:
				d.held = cand // first observation adopts immediately
			case cand == d.held:
				d.run = 0
			default:
				if cand == d.last {
					d.run++
				} else {
					d.run = 1
				}
				if d.run >= k {
					d.held = cand
					d.run = 0
				}
			}
			d.last = cand
			st.streaks[ref] = d
			desired[i] = d.held
		}
	}
	idx, met, err := allocate(st.knobs.Allocator, grid, desired, table, budget)
	if err != nil {
		return pass, err
	}
	pass.Demotions = nil
	pass.BudgetMet = met
	var total units.Power
	for i := range pass.Assignments {
		a := &pass.Assignments[i]
		a.Desired = table.FrequencyAtIndex(desired[i])
		a.Actual = table.FrequencyAtIndex(idx[i])
		a.Voltage = table.VoltageAtIndex(idx[i])
		a.PredictedLoss = 0
		if grid.Valid(i) {
			a.PredictedLoss = grid.Loss(i, idx[i])
		}
		total += table.PowerAtIndex(idx[i])
	}
	pass.TablePower = total
	return pass, nil
}

// allocate runs one named Step-2 budget fit from the (possibly debounced)
// desired indices over a filled prediction grid: actual indices capped by
// the desired ones, plus whether the result fits the budget.
func allocate(allocator string, grid *perfmodel.PredGrid, desired []int, table *power.Table, budget units.Power) ([]int, bool, error) {
	switch allocator {
	case AllocOptimal:
		sol, err := optimal.Solve(optimal.Problem{
			Table:  table,
			Budget: budget,
			Upper:  desired,
			Loss: func(cpu, fi int) float64 {
				if !grid.Valid(cpu) {
					return 0
				}
				return grid.Loss(cpu, fi)
			},
		})
		if err != nil {
			return nil, false, err
		}
		return sol.Idx, sol.Feasible, nil
	case AllocUniform:
		idx := append([]int(nil), desired...)
		for {
			var sum units.Power
			for _, k := range idx {
				sum += table.PowerAtIndex(k)
			}
			if sum <= budget {
				return idx, true, nil
			}
			best := -1
			for i, k := range idx {
				if k == 0 {
					continue
				}
				if best < 0 || k > idx[best] {
					best = i
				}
			}
			if best < 0 {
				return idx, false, nil
			}
			idx[best]--
		}
	default: // the paper's greedy, from the debounced desires
		idx := append([]int(nil), desired...)
		_, met := fvsst.FitToBudgetGrid(grid, idx, table, budget, nil)
		return idx, met, nil
	}
}

// policyCheckers is the reduced suite for rewritten passes: the Step-1/
// Step-2 shape checkers assume the paper's policy, but grid sanity, the
// voltage law and budget conservation must hold under any knob setting.
func policyCheckers() *invariant.Suite {
	return invariant.NewSuite(
		invariant.GridSanity{},
		invariant.VoltageMatch{},
		invariant.BudgetConservation{},
	)
}

// OptGapStats aggregates per-pass greedy-vs-exact-optimal measurements
// across a run (Options.MeasureGap). "Greedy" is the loss of whatever
// assignment actually ran — under default knobs that is the paper's
// Step 2. Energy* fields describe the unconstrained energy-optimal
// baseline at the same snapshots.
type OptGapStats struct {
	// Passes is the number of feasible, solved passes measured; Skipped
	// counts infeasible, empty, or solver-limit passes.
	Passes  int `json:"passes"`
	Skipped int `json:"skipped,omitempty"`
	// Broken counts passes on which the exact comparator itself failed
	// (not a solver-limit skip); BrokenDetail keeps the first such error.
	Broken       int    `json:"broken,omitempty"`
	BrokenDetail string `json:"broken_detail,omitempty"`
	// NonOptimal counts passes where the actual loss exceeded the exact
	// optimum beyond float tolerance.
	NonOptimal int `json:"non_optimal"`
	// WorstGap is the largest per-pass (actual − optimal) total loss.
	WorstGap float64 `json:"worst_gap"`
	// GreedyLoss / OptimalLoss are summed per-pass total losses.
	GreedyLoss  float64 `json:"greedy_loss"`
	OptimalLoss float64 `json:"optimal_loss"`
	// EnergyLoss sums the energy-optimal baseline's predicted loss;
	// EnergyFeasible counts passes where that baseline happened to fit
	// the budget it ignores.
	EnergyLoss     float64 `json:"energy_loss"`
	EnergyFeasible int     `json:"energy_feasible"`
}

// measure folds one pass into the stats.
func (s *OptGapStats) measure(p *invariant.Pass) {
	greedy, opt, energy, ok, err := p.OptGap()
	if err != nil {
		s.broken(1, err.Error())
		return
	}
	if !ok {
		s.Skipped++
		return
	}
	s.Passes++
	gap := greedy - opt
	if gap > 1e-12 {
		s.NonOptimal++
	}
	if gap > s.WorstGap {
		s.WorstGap = gap
	}
	s.GreedyLoss += greedy
	s.OptimalLoss += opt
	s.EnergyLoss += energy.Loss
	if energy.Feasible {
		s.EnergyFeasible++
	}
}

// broken records n comparator failures, keeping the first detail seen.
func (s *OptGapStats) broken(n int, detail string) {
	s.Broken += n
	if s.BrokenDetail == "" {
		s.BrokenDetail = detail
	}
}

// Merge folds another run's stats into s (soak aggregation).
func (s *OptGapStats) Merge(o OptGapStats) {
	s.Passes += o.Passes
	s.Skipped += o.Skipped
	s.broken(o.Broken, o.BrokenDetail)
	s.NonOptimal += o.NonOptimal
	if o.WorstGap > s.WorstGap {
		s.WorstGap = o.WorstGap
	}
	s.GreedyLoss += o.GreedyLoss
	s.OptimalLoss += o.OptimalLoss
	s.EnergyLoss += o.EnergyLoss
	s.EnergyFeasible += o.EnergyFeasible
}
