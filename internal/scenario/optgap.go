package scenario

import "repro/internal/invariant"

// OptGapStats aggregates per-pass greedy-vs-exact-optimal measurements
// across a run (Options.MeasureGap). "Greedy" is the loss of the
// assignment that actually ran: the paper's Step 2. Energy* fields
// describe the unconstrained energy-optimal baseline at the same
// snapshots.
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

// Merge folds another run's stats into s (a campaign's total over
// its scenarios).
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
