package optimal

import (
	"errors"
	"math"
	"slices"

	"repro/internal/units"
)

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
// A frontier is strictly increasing in power, and whole-watt sums are
// exact (power.NewTable), so each choice's extensions come in strictly
// increasing power: a stage is a k-way merge of those runs, not a sort,
// and holds at most one state per integer power between its floor and
// top sums. Candidates that land on one power, one per run at most,
// compete under the total order (loss, prev, choice), and the winner is
// kept iff it is the stage's first state or strictly beats every
// lower-power loss; that is what scanning the candidates sorted by
// (power, loss, prev, choice) keeps, element for element
// (dp_oracle_test.go holds that scan as the oracle). Stages share one
// arena, stage i at arena[off[i]:off[i+1]]. A stage of more than
// maxFrontier states ends the solve with ErrTooLarge.
//
// The winner must also pass the relaxation bound. newRelaxation reads
// every Loss(i, k) once, before the first stage, and prices the rows at
// the critical multiplier λ*; the greedy's CPU-order loss on those rows
// is the incumbent U, and U with relax's sums makes one threshold per
// stage. A winner s of stage i is dropped when fl(s.loss +
// fl(λ*·s.power)) > thr[i]: no completion of s can come within the
// margin of U. relax says why that removes exactly the frontier states
// that cannot win, so Idx, Loss and Power are those of the unpruned
// program and only States falls.
func solveDP(p *Problem, maxFrontier int) (Assignment, error) {
	n := len(p.Upper)
	rx := newRelaxation(p)
	width, powers, rows := rx.width, rx.powers, rx.rows
	// The greedy's assignment first, the witness last; then the stage
	// offsets.
	is := make([]int, 2*n+2)
	idx, off := is[:n:n], is[n:]
	copy(idx, p.Upper)
	demote(idx, p.Budget, func(k int) units.Power { return units.Power(powers[k]) },
		func(i, k int) float64 { return rows[i*width+k] })
	incumbent := 0.0
	for i, k := range idx {
		incumbent += rows[i*width+k]
	}
	// The stage thresholds (relax), in place of the suffix sums.
	lam, lb, thr := rx.lam, float64(rx.lam*p.Budget.W()), rx.suffix
	for i := range thr {
		thr[i] = incumbent + float64(2*n-i)*rx.step + lb - thr[i]
		if !(rx.step <= math.MaxFloat64) {
			thr[i] = math.Inf(1)
		}
	}

	runs := make([]run, width)
	off[1] = 1
	arena := append(make([]state, 0, 4*(n+1)), state{prev: -1, choice: -1})
	for i := 0; i < n; i++ {
		prev := arena[off[i]:off[i+1]]
		losses := rows[i*width : i*width+p.Upper[i]+1]
		live := runs[:0]
		for k := range losses {
			if pow := prev[0].power + units.Power(powers[k]); pow <= p.Budget {
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
				if r.pow == low {
					c := state{power: low, loss: prev[r.j].loss + losses[r.k], prev: r.j, choice: r.k}
					if best.choice < 0 || c.loss < best.loss || c.loss == best.loss &&
						(c.prev < best.prev || c.prev == best.prev && c.choice < best.choice) {
						best = c
					}
					if r.j++; int(r.j) == len(prev) {
						r.j = -1
					} else {
						r.pow = prev[r.j].power + units.Power(powers[r.k])
					}
				}
				if r.j < 0 || r.pow > p.Budget { // the run is spent
					live[ri] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					ri++
				}
			}
			if last := len(arena) - 1; (last < off[i+1] || best.loss < arena[last].loss) &&
				!(best.loss+float64(lam*best.power.W()) > thr[i]) {
				if len(arena) == cap(arena) {
					arena = slices.Grow(arena, len(arena)) // double: append's 1.25× copies a long arena 5×
				}
				arena = append(arena, best)
			}
		}
		off[i+2] = len(arena)
		switch size := off[i+2] - off[i+1]; {
		case size == 0:
			// Solve already handled the infeasible case; an empty
			// frontier can only mean the floor fits but every extension was
			// dropped, which cannot happen (the optimum's prefixes pass
			// every stage's bound and the dominance test).
			return Assignment{}, errors.New("optimal: dp lost the floor assignment")
		case size > maxFrontier:
			return Assignment{}, ErrTooLarge
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
		Bound:    rx.bound,
		Margin:   rx.margin,
	}, nil
}

// criticalSlope solves the relaxation of the instance that lets each CPU
// time-share two table points (arXiv 1203.5160): CPU i may then reach any
// point of the lower convex hull of its (P(k), L_i(k)), k ≤ Upper[i]. It
// builds that hull once per row, from the floor to the first
// minimum-loss point, in hull[i*width:], starts every row at its
// minimum-loss end and walks the hull segments across all rows in
// ascending price μ = Δloss/Δpower (a k-way merge: each row's prices
// rise towards the floor by convexity). The segment on which the total
// power reaches the budget prices the budget: its μ is the critical
// multiplier λ*, returned; 0 when the minimum-loss points already fit.
// LP* is then the Lagrangian dual at λ* (relax).
//
// Only tightness rests on this walk. relax's bound holds for any λ ≥ 0,
// so a hull rounded one way or the other changes which states are pruned,
// never whether the optimum survives.
func criticalSlope(powers, rows []float64, upper []int, budget float64, hull, pos []int, slopes []float64) float64 {
	width := len(powers)
	// slope is the price of row i's next segment towards the floor.
	slope := func(i int) float64 {
		h, at := hull[i*width:], pos[i]
		if at == 0 {
			return math.Inf(1)
		}
		a, b := h[at-1], h[at]
		return (rows[i*width+a] - rows[i*width+b]) / (powers[b] - powers[a])
	}
	total := 0.0
	for i, u := range upper {
		row, h := rows[i*width:i*width+u+1], hull[i*width:]
		kmin := 0
		for k, l := range row {
			if l < row[kmin] {
				kmin = k
			}
		}
		m := 0
		for k := 0; k <= kmin; k++ {
			// Pop the last vertex while it lies on or above the chord from
			// the one before it to k.
			for ; m >= 2; m-- {
				a, b := h[m-2], h[m-1]
				if (powers[b]-powers[a])*(row[k]-row[a]) > (row[b]-row[a])*(powers[k]-powers[a]) {
					break
				}
			}
			h[m] = k
			m++
		}
		pos[i] = m - 1
		slopes[i] = slope(i)
		total += powers[kmin]
	}
	lam := 0.0
	for total > budget {
		next := -1
		for i := range upper {
			if pos[i] > 0 && (next < 0 || slopes[i] < slopes[next]) {
				next = i
			}
		}
		if next < 0 {
			break // every row at its floor: over the budget by rounding only
		}
		h, at := hull[next*width:], pos[next]
		lam = slopes[next]
		total -= powers[h[at]] - powers[h[at-1]]
		pos[next]--
		slopes[next] = slope(next)
	}
	return lam
}

// relaxation is the convex-hull relaxation of one instance, built from
// its rows read once. solveDP prunes by it; Relax reports its bound.
type relaxation struct {
	width  int       // the widest row, max_i Upper[i] + 1
	powers []float64 // P(k) in watts
	rows   []float64 // row i's losses L_i(k), k ≤ Upper[i], at rows[i*width:]
	suffix []float64 // suffix[i] = S_{i+1} (relax)
	lam    float64   // the critical multiplier λ*
	step   float64   // 32e (relax)
	bound  float64   // LP*
	margin float64   // what LP* ≤ any fitting assignment's loss holds to
}

// newRelaxation reads every Loss(i, k), k ≤ Upper[i], once, builds each
// row's hull and walks them to λ* (criticalSlope), then prices the rows
// at λ* (relax). It is O(n·k) in time and memory.
func newRelaxation(p *Problem) relaxation {
	n := len(p.Upper)
	r := relaxation{}
	for _, u := range p.Upper {
		r.width = max(r.width, u+1)
	}
	width := r.width
	// One float slab: the table powers, the rows, the suffix sums and
	// the hull walk's slopes. One int slab: row i's hull at
	// hull[i*width:] and the walk's position on each hull.
	fs := make([]float64, width*(n+1)+2*n)
	r.powers, fs = fs[:width], fs[width:]
	r.rows, fs = fs[:n*width], fs[n*width:]
	r.suffix, fs = fs[:n], fs[n:]
	is := make([]int, n*width+n)
	for k := range r.powers {
		r.powers[k] = p.Table.PowerAtIndex(k).W()
	}
	for i, u := range p.Upper {
		for k := 0; k <= u; k++ {
			r.rows[i*width+k] = p.Loss(i, k)
		}
	}
	budget := p.Budget.W()
	r.lam = criticalSlope(r.powers, r.rows, p.Upper, budget, is[:n*width], is[n*width:], fs)
	r.bound, r.step = relax(r.powers, r.rows, p.Upper, budget, r.lam, r.suffix)
	r.margin = float64(2*n) * r.step
	return r
}

// Relax returns the convex-hull relaxation's optimum LP* for p — the
// Lagrangian dual at the critical multiplier, in O(n·k) — and the
// rounding margin it holds to: no assignment that fits the budget has a
// CPU-order loss below LP* − margin, so the exact optimum is at least
// that. They are the bits Solve reports as Assignment.Bound and Margin
// when its DP runs, from the same code. See docs/optimality.md, "The
// certificate".
func Relax(p Problem) (bound, margin float64, err error) {
	if err := p.validate(); err != nil {
		return 0, 0, err
	}
	r := newRelaxation(&p)
	return r.bound, r.margin, nil
}

// relax prices the rows at multiplier λ ≥ 0 (at λ*, the relaxation's
// optimum): it fills suffix[i] = S_{i+1} and returns the Lagrangian dual
// LP* = S_0 − λ·B and the rounding step 32e the margins are made of.
// With m_j = min_k fl(L_j(k) + fl(λ·P(k))) and S_i = m_i + S_{i+1}
// summed from the last CPU, weak duality bounds any completion of a
// prefix (power, loss) over CPUs 0..i that fits the budget B:
//
//	Σ_{j>i} L_j(k_j) ≥ Σ_{j>i} (L_j(k_j) + λ·P(k_j)) − λ·(B − power) ≥ S_{i+1} − λ·(B − power),
//
// and at i = −1 (the empty prefix) every fitting assignment's loss is at
// least LP*. So a prefix cannot beat the incumbent U when loss + λ·power
// > U + λ·B − S_{i+1}. solveDP's threshold for stage i is thr[i] =
// fl(fl(fl(U + margin_i) + fl(λ·B)) − S_{i+1}), and its test is
// fl(loss + fl(λ·power)) > thr[i]. That test is
//
//   - monotone: each operation is non-decreasing in power and in loss, so
//     if a state fails it, so does every state it dominates;
//   - strict: a prefix that meets the threshold is kept;
//   - one expression per stage, and never true on NaN or when the
//     magnitudes overflow (then every threshold is +Inf).
//
// The margin is derived, not tuned. Let M = Σ_i max_k |L_i(k)| + λ·(B +
// Σ_i P(Upper[i])) and e = 2^-52·M, twice the unit roundoff times M:
// every sum, product and threshold above is bounded by 2M, so each
// rounding moves it by at most e. Two facts follow, with margin_i =
// (2n − i)·32e:
//
//   - The optimum's prefixes pass. The witness's own completion is one of
//     those the bound ranges over, so a prefix of the DP's optimal witness
//     has test value − (thr[i] − margin_i) ≤ (optimum − U) + λ·(its power
//     − B) + (5n + 6)·e. The optimum's loss is ≤ U and its power ≤ B, and
//     margin_i ≥ (n + 1)·32e covers the rest.
//   - A failing prefix fails for good. Extending a state at stage i−1 by
//     any k adds L_i(k) + λ·P(k) ≥ m_i to its test value and removes m_i
//     from the threshold, so within 16e its test value rises at least as
//     much as its threshold falls; margin_{i−1} − margin_i = 32e covers it.
//
// Together with monotonicity the second fact means the pruned stage i is
// exactly the unpruned frontier less the states that fail the test: a
// dominated state the pruned program never met the dominator of would
// fail through that dominator's failing ancestor. The survivors keep
// their order, so ties fall to the same (loss, prev, choice) winner, and
// by the first fact the optimal witness is among them. The relaxation's
// margin is margin_0 = 2n·32e: the same (5n + 6)·e argument over a whole
// assignment that fits B gives LP* ≤ its loss within it, the optimum's
// included.
func relax(powers, rows []float64, upper []int, budget, lam float64, suffix []float64) (lp, step float64) {
	width, n := len(powers), len(upper)
	mag, ptot := 0.0, 0.0
	for i, u := range upper {
		most := 0.0
		for _, l := range rows[i*width : i*width+u+1] {
			most = max(most, math.Abs(l))
		}
		mag += most
		ptot += powers[u]
	}
	mag += float64(lam * (budget + ptot))
	step = math.Ldexp(mag, -47) // 32e; +Inf or NaN exactly when mag overflows
	s := 0.0
	for i := n - 1; i >= 0; i-- {
		suffix[i] = s
		m := math.Inf(1)
		for k, l := range rows[i*width : i*width+upper[i]+1] {
			m = min(m, l+float64(lam*powers[k]))
		}
		s += m
	}
	return s - float64(lam*budget), step
}
