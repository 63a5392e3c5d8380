package farm

import (
	"fmt"
	"math"

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
// byte-identical to the flat schedule on any input. The members' next
// points sit in a min-heap ordered by step key, so a demotion costs
// O(log members). met is false when every curve is at its floor with the
// budget still exceeded. A member with no processors and an empty curve
// is skipped.
//
// Curves and desired indices arrive off the wire from relays, so they are
// checked, not trusted: a desired index outside the table, or a step key
// that does not demote desired[i][Step.Proc] from Step.Idx ≥ 1, is an
// error naming the member, processor and index; a step key whose loss is
// NaN or infinite, or whose processor is not the member's, is an error
// naming the member and the curve point.
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
	if sum <= budget {
		return pos, true, nil
	}
	h := make([]curveHead, 0, len(curves))
	for i, c := range curves {
		if len(c.Points) > 1 {
			hd, err := headAt(curves, desired, offsets, i, 1)
			if err != nil {
				return nil, false, err
			}
			h = append(h, hd)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownHeads(h, i)
	}
	for len(h) > 0 {
		best, step := h[0].member, h[0].key
		g := offsets[best] + step.Proc
		if step.Idx < 1 {
			return nil, false, fmt.Errorf("farm: member %d processor %d step key demotes from index %d, below the table floor", best, step.Proc, step.Idx)
		}
		if actual[g] != step.Idx {
			return nil, false, fmt.Errorf("farm: member %d step key (proc %d idx %d) inconsistent with its desired indices", best, step.Proc, step.Idx)
		}
		actual[g] = step.Idx - 1
		pos[best]++
		if next := pos[best] + 1; next < len(curves[best].Points) {
			hd, err := headAt(curves, desired, offsets, best, next)
			if err != nil {
				return nil, false, err
			}
			h[0] = hd
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDownHeads(h, 0)
		if sum = table.DemotedSum(sum, step.Idx); sum <= budget {
			return pos, true, nil
		}
	}
	return pos, false, nil
}

// curveHead is a member's next curve point in the division's min-heap.
type curveHead struct {
	key    StepKey
	off    int // the member's flat processor offset
	member int
}

// before orders heads by step key. headAt admits only keys whose loss is
// finite and whose processor is the member's own, so two heads never tie
// and the order is the strict total one a scan over all heads would use.
func (a curveHead) before(b curveHead) bool { return a.key.Less(a.off, b.key, b.off) }

// headAt is member i's curve point k as a heap entry. A step loss that is
// NaN or infinite is an error, since StepKey.Less is no order on it, and
// so is a processor outside the member's, which could tie another
// member's key.
func headAt(curves []DemandCurve, desired [][]int, offsets []int, i, k int) (curveHead, error) {
	step := curves[i].Points[k].Step
	if math.IsNaN(step.Loss) || math.IsInf(step.Loss, 0) {
		return curveHead{}, fmt.Errorf("farm: member %d point %d step loss %v is not finite", i, k, step.Loss)
	}
	if step.Proc < 0 || step.Proc >= len(desired[i]) {
		return curveHead{}, fmt.Errorf("farm: member %d point %d step key processor %d outside its %d processors", i, k, step.Proc, len(desired[i]))
	}
	return curveHead{key: step, off: offsets[i], member: i}, nil
}

// siftDownHeads restores the min-heap property below position i.
func siftDownHeads(h []curveHead, i int) {
	if i >= len(h) {
		return
	}
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
