// Package fvsst implements the paper's contribution: the frequency and
// voltage scheduler for SMP servers (and, through internal/cluster, server
// clusters). Given per-processor performance-counter observations, a table
// of operating points and a global processor power budget, it runs the
// two-pass algorithm of Figure 3:
//
//	Step 1 — per processor, predict IPC at every available frequency and
//	         pick the lowest whose predicted performance loss versus f_max
//	         is below ε (performance saturation);
//	Step 2 — while the aggregate power exceeds the budget, lower the
//	         processor whose next step down costs the least predicted
//	         performance;
//	Step 3 — assign each processor the minimum voltage for its frequency.
//
// Rescheduling is triggered by the periodic timer T = n·t, by changes to
// the global power limit, and by idle transitions (§5).
package fvsst

import (
	"fmt"
	"math"

	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// EpsilonFrequency performs Step 1 for one processor: the lowest frequency
// in set whose predicted loss versus the set's maximum is under epsilon.
// When even the second-highest setting loses too much, it returns the
// maximum — the upward adjustment the paper notes Step 1 may make.
func EpsilonFrequency(dec perfmodel.Decomposition, set units.FrequencySet, epsilon float64) units.Frequency {
	fMax := set.Max()
	for _, f := range set {
		if dec.PerfLoss(fMax, f) < epsilon {
			return f
		}
	}
	return fMax
}

// IdealEpsilonFrequency is the continuous-frequency extension of §5/§9: it
// computes f_ideal in closed form and snaps it to the lowest set member at
// or above it, avoiding the per-frequency scan. For small sets the two
// approaches agree (tested); for hardware with many settings this is the
// cheaper path.
func IdealEpsilonFrequency(dec perfmodel.Decomposition, set units.FrequencySet, epsilon float64) (units.Frequency, error) {
	ideal, err := dec.IdealFrequency(set.Max(), epsilon)
	if err != nil {
		return 0, err
	}
	if f, ok := set.CeilOf(ideal); ok {
		return f, nil
	}
	return set.Max(), nil
}

// Demotion records one Step-2 reduction: the budget fit lowered CPU from
// From to To, a step predicted to cost PredictedLoss performance versus
// f_max. The sequence of demotions is the scheduler's justification for
// every gap between a processor's ε-constrained desire and its actual
// setting.
type Demotion struct {
	CPU           int
	From, To      units.Frequency
	PredictedLoss float64
}

// FitToBudget performs Step 2 across all processors: given the ε-constrained
// assignment, it lowers frequencies — always the processor whose *next
// lower* setting has the smallest predicted loss versus f_max — until the
// aggregate table power fits the budget. It returns the adjusted
// assignment and whether the budget was met (false means every processor
// is already at the minimum setting and the budget is still exceeded; the
// caller must rely on the safety margin / external action).
//
// decs may contain a nil entry for an idle processor; idle processors are
// treated as having zero loss at any frequency, so they are lowered first.
//
// It is an adapter over FitToBudgetGrid, not a second walk: the
// decompositions are swept into a prediction grid and indices mapped back.
func FitToBudget(decs []*perfmodel.Decomposition, assigned []units.Frequency, table *power.Table, budget units.Power) ([]units.Frequency, bool, error) {
	if len(decs) != len(assigned) {
		return nil, false, fmt.Errorf("fvsst: %d decompositions for %d assignments", len(decs), len(assigned))
	}
	var grid perfmodel.PredGrid
	grid.Reset(len(decs), table.Frequencies())
	idx := make([]int, len(assigned))
	for i, f := range assigned {
		if idx[i] = table.IndexOf(f); idx[i] < 0 {
			return nil, false, fmt.Errorf("fvsst: cpu %d: frequency %v not in table", i, f)
		}
		if decs[i] != nil {
			grid.Fill(i, *decs[i])
		}
	}
	_, met := FitToBudgetGrid(&grid, idx, table, budget, nil)
	out := make([]units.Frequency, len(idx))
	for i, k := range idx {
		out[i] = table.FrequencyAtIndex(k)
	}
	return out, met, nil
}

// EpsilonIndexGrid is Step 1 over a pre-evaluated prediction grid: the
// index of the lowest set frequency whose predicted loss is under epsilon.
// The loss at the set maximum is zero, so the scan always terminates; the
// result is identical to EpsilonFrequency over the same decomposition.
func EpsilonIndexGrid(g *perfmodel.PredGrid, cpu int, epsilon float64) int {
	n := g.NumFreqs()
	for i := 0; i < n; i++ {
		if g.Loss(cpu, i) < epsilon {
			return i
		}
	}
	return n - 1
}

// FitToBudgetGrid is Step 2 in index space: actualIdx[i] indexes processor
// i's current setting in the table (ascending); the fit lowers indices —
// always the processor whose next step down has the smallest grid loss,
// ties toward the higher current index — until the aggregate table power
// fits the budget, mutating actualIdx in place. Invalid grid rows (idle or
// unobserved processors) count as zero loss, so they are lowered first.
// Demotions are appended to the caller's buffer (pass a len-0 slice to
// reuse its backing array) and returned with met, which is false when the
// floor is reached with the budget still exceeded. No per-step frequency
// searches, no allocation beyond demotion growth.
//
// This loop is the only production body of the Step-2 selection rule
// (Scheduler, cluster.Core's pass and demand curve, FitToBudget and the
// scenario policy rewrite all run it). invariant.StepTwoReplay and
// optimal.Greedy state the rule independently to check it;
// invariant.FuzzStepTwoAgreement holds the three to the same walk.
func FitToBudgetGrid(g *perfmodel.PredGrid, actualIdx []int, table *power.Table, budget units.Power, demotions []Demotion) ([]Demotion, bool) {
	for {
		var sum units.Power
		for _, idx := range actualIdx {
			sum += table.PowerAtIndex(idx)
		}
		if sum <= budget {
			return demotions, true
		}
		best := -1
		bestLoss := math.Inf(1)
		for i, idx := range actualIdx {
			if idx == 0 {
				continue // already at minimum
			}
			loss := 0.0
			if g.Valid(i) {
				loss = g.Loss(i, idx-1)
			}
			if loss < bestLoss || (loss == bestLoss && best >= 0 && idx > actualIdx[best]) {
				best, bestLoss = i, loss
			}
		}
		if best < 0 {
			return demotions, false // floor reached, budget still exceeded
		}
		demotions = append(demotions, Demotion{
			CPU:           best,
			From:          table.FrequencyAtIndex(actualIdx[best]),
			To:            table.FrequencyAtIndex(actualIdx[best] - 1),
			PredictedLoss: bestLoss,
		})
		actualIdx[best]--
	}
}

// TotalTablePower sums the table power of an assignment.
func TotalTablePower(assigned []units.Frequency, table *power.Table) (units.Power, error) {
	var sum units.Power
	for _, f := range assigned {
		p, err := table.PowerAt(f)
		if err != nil {
			return 0, err
		}
		sum += p
	}
	return sum, nil
}
