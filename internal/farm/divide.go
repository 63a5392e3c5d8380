package farm

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/units"
)

// DivideLeastLossExact splits a power budget across member demand curves
// by replaying the flat Step-2 greedy over their step keys: every member
// starts at its desire (point 0) and the member whose next point carries
// the smallest key — absolute loss ascending, pre-demotion index
// descending, flat processor index ascending — advances one point, until
// the aggregate power fits the budget. Because each member's curve is
// itself the least-loss demotion sequence over its own processors,
// interleaving by key reproduces the demotion order of one flat
// fvsst.FitToBudgetGrid pass over the union, and the returned point index
// per member is that flat schedule, sliced.
//
// The stop test uses the flat pass's exact arithmetic rather than summing
// the members' curve point powers, which could differ from it by float
// rounding at the boundary: desired[i] holds member i's initial
// per-processor table indices (curve point 0), summed once in flat
// processor order. After that power.Table.DemotedSum carries it exactly
// as in fvsst.FitToBudgetGrid: each advance costs sum −= P[idx] −
// P[idx−1], which is bit for bit what re-summing would give because sums
// of whole watts cannot round (power.NewTable). The division is then
// byte-identical to the flat schedule on any input, at O(members) per
// demotion. met is false when every curve is at its floor with the budget
// still exceeded. A member with no processors and an empty curve is
// skipped.
//
// Curves and desired indices arrive off the wire from relays, so they are
// checked, not trusted: a desired index outside the table, or a step key
// that does not demote desired[i][Step.Proc] from Step.Idx ≥ 1, is an
// error naming the member, processor and index.
func DivideLeastLossExact(curves []DemandCurve, desired [][]int, table *power.Table, budget units.Power) (pos []int, met bool, err error) {
	if len(desired) != len(curves) {
		return nil, false, fmt.Errorf("farm: %d desired sets for %d curves", len(desired), len(curves))
	}
	offsets := make([]int, len(curves))
	total := 0
	for i, d := range desired {
		offsets[i] = total
		total += len(d)
		if len(curves[i].Points) == 0 && len(d) > 0 {
			return nil, false, fmt.Errorf("farm: member %d has %d processors but an empty curve", i, len(d))
		}
		for proc, idx := range d {
			if idx < 0 || idx >= table.Len() {
				return nil, false, fmt.Errorf("farm: member %d processor %d desired index %d outside table of %d points", i, proc, idx, table.Len())
			}
		}
	}
	actual := make([]int, 0, total)
	for _, d := range desired {
		actual = append(actual, d...)
	}
	pos = make([]int, len(curves))
	sum := table.SumAtIndices(actual)
	for {
		if sum <= budget {
			return pos, true, nil
		}
		best := bestHead(curves, offsets, pos)
		if best < 0 {
			return pos, false, nil
		}
		step := curves[best].Points[pos[best]+1].Step
		g := offsets[best] + step.Proc
		if step.Idx < 1 {
			return nil, false, fmt.Errorf("farm: member %d processor %d step key demotes from index %d, below the table floor", best, step.Proc, step.Idx)
		}
		if g < 0 || g >= len(actual) || actual[g] != step.Idx {
			return nil, false, fmt.Errorf("farm: member %d step key (proc %d idx %d) inconsistent with its desired indices", best, step.Proc, step.Idx)
		}
		actual[g] = step.Idx - 1
		pos[best]++
		sum = table.DemotedSum(sum, step.Idx)
	}
}

// bestHead picks the member whose next curve point has the smallest step
// key (-1 when every member is exhausted).
func bestHead(curves []DemandCurve, offsets, pos []int) int {
	best := -1
	for i, c := range curves {
		if pos[i]+1 >= len(c.Points) {
			continue
		}
		if best < 0 || c.Points[pos[i]+1].Step.Less(offsets[i], curves[best].Points[pos[best]+1].Step, offsets[best]) {
			best = i
		}
	}
	return best
}
