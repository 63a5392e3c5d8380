package invariant

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Float tolerances. Grid values on both sides come from the identical
// perfmodel code path over identical inputs, so they agree to the last
// bit in practice; tiny absorbs any future reassociation. powerTol covers
// harnesses that re-derive the charged sum in a different order.
const (
	tiny     = 1e-12
	powerTol = 1e-9
)

// GridSanity checks the analytic shape of the performance model (§3):
// IPC(f) = 1/(α⁻¹ + S·f) must be positive, non-increasing in f, with
// Perf(f) = IPC(f)·f non-decreasing, and the derived PerfLoss must lie in
// [0,1], be non-increasing in f, and vanish at f_max.
type GridSanity struct{}

func (GridSanity) Check(p *Pass) []Violation {
	var out []Violation
	g := p.Grid()
	nf := g.NumFreqs()
	for i := range p.Procs {
		if !g.Valid(i) {
			continue
		}
		for fi := 0; fi < nf; fi++ {
			ipc := g.IPC(i, fi)
			loss := g.Loss(i, fi)
			if math.IsNaN(ipc) || math.IsInf(ipc, 0) || ipc <= 0 {
				out = append(out, Violation{"grid-sanity", p.At,
					fmt.Sprintf("%s: IPC(%v)=%g not finite positive", p.procLabel(i), g.Freq(fi), ipc)})
			}
			if math.IsNaN(loss) || loss < -tiny || loss > 1+tiny {
				out = append(out, Violation{"grid-sanity", p.At,
					fmt.Sprintf("%s: PerfLoss(%v)=%g outside [0,1]", p.procLabel(i), g.Freq(fi), loss)})
			}
			if fi == nf-1 && math.Abs(loss) > tiny {
				out = append(out, Violation{"grid-sanity", p.At,
					fmt.Sprintf("%s: PerfLoss(f_max)=%g, want 0", p.procLabel(i), loss)})
			}
			if fi > 0 {
				if ipc > g.IPC(i, fi-1)+tiny {
					out = append(out, Violation{"grid-sanity", p.At,
						fmt.Sprintf("%s: IPC rises with f: IPC(%v)=%g > IPC(%v)=%g",
							p.procLabel(i), g.Freq(fi), ipc, g.Freq(fi-1), g.IPC(i, fi-1))})
				}
				perf := ipc * g.Freq(fi).Hz()
				prev := g.IPC(i, fi-1) * g.Freq(fi-1).Hz()
				if perf < prev-tiny*math.Max(1, prev) {
					out = append(out, Violation{"grid-sanity", p.At,
						fmt.Sprintf("%s: Perf falls with f: Perf(%v)=%g < Perf(%v)=%g",
							p.procLabel(i), g.Freq(fi), perf, g.Freq(fi-1), prev)})
				}
				if loss > g.Loss(i, fi-1)+tiny {
					out = append(out, Violation{"grid-sanity", p.At,
						fmt.Sprintf("%s: PerfLoss rises with f: Loss(%v)=%g > Loss(%v)=%g",
							p.procLabel(i), g.Freq(fi), loss, g.Freq(fi-1), g.Loss(i, fi-1))})
				}
			}
		}
	}
	return out
}

// EpsilonSaturation checks Step 1 (§4): every CPU's desired frequency is
// the lowest table frequency whose predicted loss is under ε — no CPU
// sits above it, none below. Idle CPUs (when the idle signal is honoured)
// must sit at the floor; CPUs without a usable prediction at f_max.
type EpsilonSaturation struct{}

func (EpsilonSaturation) Check(p *Pass) []Violation {
	var out []Violation
	g := p.Grid()
	nf := g.NumFreqs()
	for i, pr := range p.Procs {
		want := nf - 1
		switch {
		case p.UseIdleSignal && pr.Idle:
			want = 0
		case !g.Valid(i):
			// no counters: pin at f_max
		default:
			for fi := 0; fi < nf; fi++ {
				if g.Loss(i, fi) < p.Epsilon {
					want = fi
					break
				}
			}
		}
		if pr.DesiredIdx != want {
			out = append(out, Violation{"step1-epsilon", p.At,
				fmt.Sprintf("%s: desired %v (idx %d), want lowest loss<ε at %v (idx %d)",
					p.procLabel(i), p.Table.FrequencyAtIndex(pr.DesiredIdx), pr.DesiredIdx,
					p.Table.FrequencyAtIndex(want), want)})
		}
	}
	return out
}

// StepTwoReplay re-runs Step 2's documented selection rule (§4: demote
// the CPU whose next-lower point costs the least predicted loss, ties to
// the higher current frequency, unpredicted CPUs count as free) with an
// independent implementation and demands the production path made the
// identical demotion sequence and reached the identical assignment. It
// also checks that the logged demotion losses are non-decreasing — a
// structural consequence of greedy least-loss selection over rows whose
// candidate loss only grows as the index drops.
type StepTwoReplay struct{}

func (StepTwoReplay) Check(p *Pass) []Violation {
	var out []Violation
	g := p.Grid()
	n := len(p.Procs)
	idx := make([]int, n)
	for i, pr := range p.Procs {
		idx[i] = pr.DesiredIdx
	}
	type step struct {
		cpu  int
		from int
		loss float64
	}
	var steps []step
	met := false
	for {
		var sum units.Power
		for i := 0; i < n; i++ {
			sum += p.Table.PowerAtIndex(idx[i])
		}
		if sum <= p.Budget {
			met = true
			break
		}
		best, bestLoss := -1, 0.0
		for i := 0; i < n; i++ {
			if idx[i] == 0 {
				continue
			}
			loss := 0.0
			if g.Valid(i) {
				loss = g.Loss(i, idx[i]-1)
			}
			if best < 0 || loss < bestLoss || (loss == bestLoss && idx[i] > idx[best]) {
				best, bestLoss = i, loss
			}
		}
		if best < 0 {
			break
		}
		steps = append(steps, step{best, idx[best], bestLoss})
		idx[best]--
	}
	if met != p.Met {
		out = append(out, Violation{"step2-least-loss", p.At,
			fmt.Sprintf("replay met=%v but pass reported met=%v", met, p.Met)})
	}
	if len(steps) != len(p.Demotions) {
		out = append(out, Violation{"step2-least-loss", p.At,
			fmt.Sprintf("replay made %d demotions, pass logged %d", len(steps), len(p.Demotions))})
	}
	for k := 0; k < len(steps) && k < len(p.Demotions); k++ {
		s, d := steps[k], p.Demotions[k]
		if d.CPU != s.cpu ||
			d.From != p.Table.FrequencyAtIndex(s.from) ||
			d.To != p.Table.FrequencyAtIndex(s.from-1) ||
			math.Abs(d.PredictedLoss-s.loss) > tiny {
			out = append(out, Violation{"step2-least-loss", p.At,
				fmt.Sprintf("demotion %d: got cpu%d %v→%v loss=%g, replay chose cpu%d %v→%v loss=%g",
					k, d.CPU, d.From, d.To, d.PredictedLoss,
					s.cpu, p.Table.FrequencyAtIndex(s.from), p.Table.FrequencyAtIndex(s.from-1), s.loss)})
			break
		}
	}
	for i, pr := range p.Procs {
		if pr.ActualIdx != idx[i] {
			out = append(out, Violation{"step2-least-loss", p.At,
				fmt.Sprintf("%s: actual idx %d, replay reaches %d", p.procLabel(i), pr.ActualIdx, idx[i])})
		}
	}
	for k := 1; k < len(p.Demotions); k++ {
		if p.Demotions[k].PredictedLoss < p.Demotions[k-1].PredictedLoss-tiny {
			out = append(out, Violation{"step2-least-loss", p.At,
				fmt.Sprintf("demotion losses not monotone: step %d loss %g < step %d loss %g",
					k, p.Demotions[k].PredictedLoss, k-1, p.Demotions[k-1].PredictedLoss)})
		}
	}
	return out
}

// DefaultGap is the allowed greedy-vs-optimal total-loss gap, calibrated
// empirically against the exact DP comparator (`experiments optgap`):
// 600 random scenarios (8,833 measured passes) produced 427 non-optimal
// passes with a worst observed per-pass gap of 0.146, so 0.2 leaves
// ~1.4× margin while still catching gross Step-2 regressions. The old
// brute-force-only calibration (worst 0.068 over 300 seeds) was an
// underestimate: it skipped exactly the large passes where the greedy
// strays furthest (see docs/invariants.md and docs/optimality.md).
const DefaultGap = 0.2

// VoltageMatch checks Step 3 (§4): every CPU runs at the table's minimum
// voltage for its assigned frequency.
type VoltageMatch struct{}

func (VoltageMatch) Check(p *Pass) []Violation {
	var out []Violation
	for i, pr := range p.Procs {
		want := p.Table.VoltageAtIndex(pr.ActualIdx)
		if pr.Voltage != want {
			out = append(out, Violation{"step3-voltage", p.At,
				fmt.Sprintf("%s: voltage %v at %v, table minimum is %v",
					p.procLabel(i), pr.Voltage, p.Table.FrequencyAtIndex(pr.ActualIdx), want)})
		}
	}
	return out
}

// BudgetConservation checks the core safety contract (§4 Step 2): charged
// power is the table sum of the actual assignment, it respects the budget
// whenever the pass claims the budget was met, a missed budget is only
// legal with every CPU at the floor, and Step 2 only ever demotes.
type BudgetConservation struct{}

func (BudgetConservation) Check(p *Pass) []Violation {
	var out []Violation
	var charged units.Power
	for i, pr := range p.Procs {
		charged += p.Table.PowerAtIndex(pr.ActualIdx)
		if pr.ActualIdx > pr.DesiredIdx {
			out = append(out, Violation{"budget-conservation", p.At,
				fmt.Sprintf("%s: actual idx %d above desired %d: Step 2 may only demote",
					p.procLabel(i), pr.ActualIdx, pr.DesiredIdx)})
		}
	}
	if math.Abs(charged.W()-p.Charged.W()) > powerTol {
		out = append(out, Violation{"budget-conservation", p.At,
			fmt.Sprintf("charged %v but table sum of actual assignment is %v", p.Charged, charged)})
	}
	if p.Met && charged > p.Budget+powerTol {
		out = append(out, Violation{"budget-conservation", p.At,
			fmt.Sprintf("met=true but charged %v exceeds budget %v", charged, p.Budget)})
	}
	if !p.Met {
		for i, pr := range p.Procs {
			if pr.ActualIdx != 0 {
				out = append(out, Violation{"budget-conservation", p.At,
					fmt.Sprintf("met=false with %s at idx %d: infeasible budget must floor every CPU",
						p.procLabel(i), pr.ActualIdx)})
			}
		}
	}
	return out
}
