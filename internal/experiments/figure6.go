package experiments

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/units"
)

// Figure6Point is one (power limit, normalised performance) pair for one
// phase type.
type Figure6Point struct {
	LimitW   float64
	NormPerf float64
}

// Figure6Report reproduces Figure 6 (performance impact of power limits):
// a single-CPU system running a CPU-intensive (100%) and a
// memory-intensive (20%) synthetic phase across a budget sweep from 140 W
// down. Performance is normalised to the full-power run. Memory-intensive
// work shows no degradation until the budget forces the frequency below
// the saturation point; CPU-intensive work degrades slightly less than
// one-to-one with frequency.
type Figure6Report struct {
	CPUIntensive []Figure6Point
	MemIntensive []Figure6Point
	// MemKneeW is the highest budget at which the memory-intensive phase
	// first loses more than 5%.
	MemKneeW float64
}

// Figure6 runs the budget sweep.
func Figure6(o Options) (*Figure6Report, error) {
	limits := []float64{140, 123, 109, 95, 84, 75, 66, 57, 48, 41, 35, 28, 22, 18, 13, 9}
	rep := &Figure6Report{}
	for _, spec := range []struct {
		intensity float64
		out       *[]Figure6Point
	}{
		{100, &rep.CPUIntensive},
		{20, &rep.MemIntensive},
	} {
		prog, err := o.syntheticSingle(spec.intensity, 2.0)
		if err != nil {
			return nil, err
		}
		var base float64
		for _, lim := range limits {
			res, err := o.fvsstRun(1, 0, prog, units.Watts(lim), nil, nil, nil)
			if err != nil {
				return nil, err
			}
			perf := 1 / res.Seconds
			if lim == 140 {
				base = perf
			}
			*spec.out = append(*spec.out, Figure6Point{LimitW: lim, NormPerf: perf / base})
		}
	}
	for _, p := range rep.MemIntensive {
		if p.NormPerf < 0.95 {
			rep.MemKneeW = p.LimitW
			break
		}
	}
	return rep, nil
}

// Render formats the report.
func (r *Figure6Report) Render() string {
	t := textTable{
		Title:   "Figure 6: performance vs power limit (normalised to 140W)",
		Headers: []string{"Limit", "Freq cap", "cpu-intensive (100%)", "mem-intensive (20%)"},
	}
	tab := power.PaperTable1()
	for i := range r.CPUIntensive {
		lim := r.CPUIntensive[i].LimitW
		cap, ok := tab.MaxFrequencyUnder(units.Watts(lim))
		capStr := "-"
		if ok {
			capStr = cap.String()
		}
		t.addRow(
			fmt.Sprintf("%.0fW", lim),
			capStr,
			fmt.Sprintf("%.3f", r.CPUIntensive[i].NormPerf),
			fmt.Sprintf("%.3f", r.MemIntensive[i].NormPerf),
		)
	}
	return t.String() + fmt.Sprintf("memory-intensive knee at %.0fW\n", r.MemKneeW)
}
