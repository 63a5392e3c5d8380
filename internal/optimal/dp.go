package optimal

import (
	"errors"
	"slices"

	"repro/internal/units"
)

// errFrontier is the internal signal that the Pareto frontier outgrew its
// cap and the caller should fall back to branch-and-bound.
var errFrontier = errors.New("optimal: dp frontier exceeded cap")

// state is one Pareto-optimal prefix: the exact CPU-order power and loss
// sums of a concrete partial assignment, plus enough to backtrack it.
type state struct {
	power  units.Power
	loss   float64
	prev   int32 // index into the previous stage's frontier
	choice int32 // table index chosen for this stage's CPU
}

// run is one choice's walk along the previous frontier: its next
// candidate extends prev[j] with table index k and draws pow.
type run struct {
	pow  units.Power
	j, k int32
}

// solveDP runs the Pareto-frontier dynamic program. Stage i extends every
// surviving prefix over CPUs 0..i-1 with each choice k ≤ Upper[i],
// accumulating power and loss in CPU order so each state's sums are the
// literal left-to-right float sums of a real assignment prefix — the same
// sums the brute-force enumerator computes. Dominance pruning (drop a
// prefix when another has ≤ power and ≤ loss) is exact because IEEE float
// addition is monotone: the dominating prefix stays ≤ under any shared
// suffix, for both the feasibility test and the final loss. Prefixes over
// budget are dropped because table powers are strictly positive, so no
// suffix can bring them back under. The minimum loss on the final
// frontier is therefore bit-identical to exhaustive enumeration.
//
// A frontier is strictly increasing in power, so by the same monotonicity
// each choice's extensions already come in non-decreasing power: a stage
// is a k-way merge of those runs, not a sort. Candidates that land on one
// power — across runs or along one — compete under the total order (loss,
// prev, choice), and the winner is kept iff it is the stage's first state
// or strictly beats every lower-power loss; that is what scanning the
// candidates sorted by (power, loss, prev, choice) keeps, element for
// element (dp_oracle_test.go holds that scan as the oracle). Stages share
// one arena, stage i at arena[off[i]:off[i+1]].
func solveDP(p *Problem, lim Limits) (Assignment, error) {
	n := len(p.Upper)
	width := 0
	for _, u := range p.Upper {
		width = max(width, u+1)
	}
	powers := make([]units.Power, width)
	for k := range powers {
		powers[k] = p.Table.PowerAtIndex(k)
	}
	losses := make([]float64, width)
	runs := make([]run, width)
	off := make([]int, n+2)
	off[1] = 1
	arena := append(make([]state, 0, 4*(n+1)), state{prev: -1, choice: -1})
	for i := 0; i < n; i++ {
		prev := arena[off[i]:off[i+1]]
		live := runs[:0]
		for k := 0; k <= p.Upper[i]; k++ {
			losses[k] = p.Loss(i, k)
			if pow := prev[0].power + powers[k]; pow <= p.Budget {
				live = append(live, run{pow: pow, k: int32(k)})
			}
		}
		for len(live) > 0 {
			low := live[0].pow
			for _, r := range live[1:] {
				low = min(low, r.pow)
			}
			best := state{choice: -1}
			for ri := 0; ri < len(live); {
				r := &live[ri]
				for r.pow == low {
					c := state{power: low, loss: prev[r.j].loss + losses[r.k], prev: r.j, choice: r.k}
					if best.choice < 0 || c.loss < best.loss || c.loss == best.loss &&
						(c.prev < best.prev || c.prev == best.prev && c.choice < best.choice) {
						best = c
					}
					if r.j++; int(r.j) == len(prev) {
						r.j = -1
						break
					}
					r.pow = prev[r.j].power + powers[r.k]
				}
				if r.j < 0 || r.pow > p.Budget { // the run is spent
					live[ri] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					ri++
				}
			}
			if last := len(arena) - 1; last < off[i+1] || best.loss < arena[last].loss {
				if len(arena) == cap(arena) {
					arena = slices.Grow(arena, len(arena)) // double: append's 1.25× copies a long arena 5×
				}
				arena = append(arena, best)
			}
		}
		off[i+2] = len(arena)
		switch size := off[i+2] - off[i+1]; {
		case size == 0:
			// SolveLimits already handled the infeasible case; an empty
			// frontier can only mean the floor fits but every extension was
			// dropped, which cannot happen (the all-floor path survives).
			return Assignment{}, errors.New("optimal: dp lost the floor assignment")
		case size > lim.MaxFrontier:
			return Assignment{}, errFrontier
		}
	}
	final := arena[off[n]:]
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
		s := arena[off[i+1]+int(si)]
		idx[i] = int(s.choice)
		si = s.prev
	}
	return Assignment{
		Idx:      idx,
		Loss:     final[best].loss,
		Power:    final[best].power,
		Feasible: true,
		Method:   "dp",
		States:   len(arena),
	}, nil
}
