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
	"math"
	"math/bits"

	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

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

// EpsilonIndexGrid is Step 1 over a pre-evaluated prediction grid: the
// index of the lowest set frequency whose predicted loss is under epsilon.
// The loss at the set maximum is zero, so the scan always terminates.
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
// ties toward the higher current index, then the lower processor number —
// until the aggregate table power fits the budget, mutating actualIdx in
// place. Invalid grid rows (idle or unobserved processors) count as zero
// loss, so they are lowered first; a next step whose loss is NaN or +Inf
// is never taken. Demotions are appended to the caller's buffer (pass a
// len-0 slice to reuse its backing array) and returned with met, which is
// false when no step is left to take with the budget still exceeded.
//
// Selection is a binary min-heap over every processor's next step, ordered
// (loss ascending, current index descending, processor ascending) — the
// total order whose minimum a left-to-right scan under "loss < best ||
// (loss == best && idx > best's idx)" finds, −0 tying +0 and non-monotone
// loss rows included (stepKey). A demotion changes only the demoted
// processor's key, so each costs O(log n); the heap is built, in the
// grid's scratch, only once the desire is found not to fit.
//
// The stop test is the aggregate table power summed in processor order,
// carried across demotions by power.Table.DemotedSum: a running sum −=
// P[idx] − P[idx−1], bit for bit the re-sum because sums of a table's
// whole-watt powers are exact in any order (power.NewTable).
//
// This loop is the only production body of the Step-2 selection rule: Pass
// runs it for every owner (Scheduler, cluster.Core's pass and demand
// curve, the baseline policy). invariant.StepTwoReplay and
// optimal.Greedy state the rule independently, as scans, to check it;
// invariant.FuzzStepTwoAgreement holds the three to the same walk.
func FitToBudgetGrid(g *perfmodel.PredGrid, actualIdx []int, table *power.Table, budget units.Power, demotions []Demotion) ([]Demotion, bool) {
	sum := table.SumAtIndices(actualIdx)
	if sum <= budget {
		return demotions, true
	}
	h := g.DemotionHeap()
	for i, idx := range actualIdx {
		if key, ok := stepKey(g, i, idx); ok {
			h = append(h, key)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		cpu, idx := int(uint32(h[0].Lo)), int(^uint32(h[0].Lo>>32))
		demotions = append(demotions, Demotion{
			CPU:           cpu,
			From:          table.FrequencyAtIndex(idx),
			To:            table.FrequencyAtIndex(idx - 1),
			PredictedLoss: nextLoss(g, cpu, idx),
		})
		actualIdx[cpu] = idx - 1
		if key, ok := stepKey(g, cpu, idx-1); ok {
			h[0] = key
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
		if sum = table.DemotedSum(sum, idx); sum <= budget {
			return demotions, true
		}
	}
	return demotions, false // nothing left to demote, budget still exceeded
}

// nextLoss is the grid loss of cpu's step down from table index idx ≥ 1:
// zero for an invalid row.
func nextLoss(g *perfmodel.PredGrid, cpu, idx int) float64 {
	if !g.Valid(cpu) {
		return 0
	}
	return g.Loss(cpu, idx-1)
}

// stepKey packs cpu's next step, from table index idx, into a heap entry.
// ok is false when there is no step to take: idx is the floor, or the loss
// is NaN or +Inf, which no "loss < best" comparison ever selects.
//
// Hi is the loss under the usual order-preserving map of non-NaN floats
// onto unsigned integers (negative values bit-flipped, the rest offset by
// the sign bit), after +0 has folded −0 onto +0 so the two tie as they do
// under ==. Lo is ^idx above cpu. Ascending (Hi, Lo) is therefore loss
// ascending by float comparison, then index descending, then processor
// ascending — and one 128-bit subtraction compares two entries without a
// branch, which is what the sift spends its time on.
func stepKey(g *perfmodel.PredGrid, cpu, idx int) (perfmodel.DemotionKey, bool) {
	if idx == 0 {
		return perfmodel.DemotionKey{}, false
	}
	loss := nextLoss(g, cpu, idx)
	hi := math.Float64bits(loss + 0)
	if hi>>63 != 0 {
		hi = ^hi
	} else {
		hi |= 1 << 63
	}
	return perfmodel.DemotionKey{Hi: hi, Lo: uint64(^uint32(idx))<<32 | uint64(uint32(cpu))}, loss < math.Inf(1)
}

// before is 1 when a orders strictly before b, else 0: the borrow out of
// the 128-bit subtraction a − b.
func before(a, b perfmodel.DemotionKey) uint64 {
	_, borrow := bits.Sub64(a.Lo, b.Lo, 0)
	_, borrow = bits.Sub64(a.Hi, b.Hi, borrow)
	return borrow
}

// siftDown restores the min-heap property below position i. Which child
// is smaller is a coin toss to the branch predictor, so it is added, not
// branched on.
func siftDown(h []perfmodel.DemotionKey, i int) {
	if i >= len(h) {
		return
	}
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) {
			c += int(before(h[r], h[c]))
		}
		if before(h[c], x) == 0 {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
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
