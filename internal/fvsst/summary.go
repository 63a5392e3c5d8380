package fvsst

import (
	"fmt"
	"sort"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Summary condenses a decision log into the quantities an operator would
// ask of the daemon after a run: how often each trigger fired, whether the
// budget was ever missed, and per-processor frequency residency — the same
// aggregation Figure 8 presents per benchmark.
type Summary struct {
	Decisions int
	// Triggers counts decisions per trigger label.
	Triggers map[string]int
	// BudgetMisses counts decisions where even the frequency floor could
	// not meet the budget.
	BudgetMisses int
	// Demotions counts Step-2 single-step reductions across the run.
	Demotions int
	// PerCPU holds per-processor aggregates indexed by CPU id.
	PerCPU []CPUSummary
}

// CPUSummary aggregates one processor's schedule over the run.
type CPUSummary struct {
	CPU int
	// MeanFreqMHz is the decision-weighted mean actual frequency.
	MeanFreqMHz float64
	// Residency maps frequency (MHz) to the fraction of decisions that
	// assigned it.
	Residency map[float64]float64
	// ClippedFraction is the share of decisions where the budget fit
	// pushed the processor below its ε-constrained desire (Figure 9's
	// actual-vs-desired gap).
	ClippedFraction float64
	// IdleFraction is the share of decisions that saw the processor idle.
	IdleFraction float64
	// Demotions counts the Step-2 reductions that landed on this
	// processor across the run.
	Demotions int
}

// Summarize builds a Summary from a decision log.
func Summarize(decisions []Decision) (*Summary, error) {
	if len(decisions) == 0 {
		return nil, fmt.Errorf("fvsst: no decisions to summarise")
	}
	n := len(decisions[0].Assignments)
	s := &Summary{
		Decisions: len(decisions),
		Triggers:  map[string]int{},
		PerCPU:    make([]CPUSummary, n),
	}
	hists := make([]*stats.Histogram, n)
	clipped := make([]int, n)
	idle := make([]int, n)
	demoted := make([]int, n)
	var freqSum []float64 = make([]float64, n)
	for cpu := range hists {
		hists[cpu] = stats.NewHistogram()
	}
	for _, d := range decisions {
		s.Triggers[d.Trigger]++
		if !d.BudgetMet {
			s.BudgetMisses++
		}
		if len(d.Assignments) != n {
			return nil, fmt.Errorf("fvsst: decision with %d assignments, expected %d", len(d.Assignments), n)
		}
		for cpu, a := range d.Assignments {
			hists[cpu].MustAdd(a.Actual.MHz(), 1)
			freqSum[cpu] += a.Actual.MHz()
			if a.Desired > a.Actual {
				clipped[cpu]++
			}
			if a.Idle {
				idle[cpu]++
			}
		}
		for _, dm := range d.Demotions {
			s.Demotions++
			if dm.CPU >= 0 && dm.CPU < n {
				demoted[dm.CPU]++
			}
		}
	}
	for cpu := 0; cpu < n; cpu++ {
		cs := CPUSummary{
			CPU:             cpu,
			MeanFreqMHz:     freqSum[cpu] / float64(len(decisions)),
			Residency:       map[float64]float64{},
			ClippedFraction: float64(clipped[cpu]) / float64(len(decisions)),
			IdleFraction:    float64(idle[cpu]) / float64(len(decisions)),
			Demotions:       demoted[cpu],
		}
		bins, fracs := hists[cpu].Fractions()
		for i, b := range bins {
			cs.Residency[b] = fracs[i]
		}
		s.PerCPU[cpu] = cs
	}
	return s, nil
}

// Render formats the summary as text.
func (s *Summary) Render() string {
	t := telemetry.Table{
		Title:   fmt.Sprintf("fvsst run summary: %d decisions, %d budget misses, %d demotions", s.Decisions, s.BudgetMisses, s.Demotions),
		Headers: []string{"CPU", "mean f", "clipped", "idle", "demoted", "top residencies"},
	}
	for _, c := range s.PerCPU {
		type bin struct {
			mhz, frac float64
		}
		var bins []bin
		for m, f := range c.Residency {
			bins = append(bins, bin{m, f})
		}
		// Largest share first; a tie goes to the lower frequency, so the
		// ranking does not depend on the map's iteration order.
		sort.Slice(bins, func(i, j int) bool {
			if bins[i].frac != bins[j].frac {
				return bins[i].frac > bins[j].frac
			}
			return bins[i].mhz < bins[j].mhz
		})
		top := ""
		for i, b := range bins {
			if i == 3 || b.frac < 0.01 {
				break
			}
			if i > 0 {
				top += ", "
			}
			top += fmt.Sprintf("%s %.0f%%", units.MHz(b.mhz), b.frac*100)
		}
		t.MustAddRow(
			fmt.Sprintf("%d", c.CPU),
			fmt.Sprintf("%.0fMHz", c.MeanFreqMHz),
			fmt.Sprintf("%.0f%%", c.ClippedFraction*100),
			fmt.Sprintf("%.0f%%", c.IdleFraction*100),
			fmt.Sprintf("%d", c.Demotions),
			top,
		)
	}
	out := t.String()
	triggers := make([]string, 0, len(s.Triggers))
	for name := range s.Triggers {
		triggers = append(triggers, name)
	}
	sort.Strings(triggers)
	out += "triggers:"
	for _, name := range triggers {
		out += fmt.Sprintf(" %s=%d", name, s.Triggers[name])
	}
	return out + "\n"
}
