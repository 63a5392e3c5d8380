package experiments

import (
	"fmt"

	"repro/internal/units"
	"repro/internal/workload"
)

// Figure7Budget summarises one budget level of the Figure 7 study.
type Figure7Budget struct {
	LimitW float64
	// MeanFreq100 and MeanFreq75 are the mean scheduled frequencies (MHz)
	// during the 100%- and 75%-intensity phases.
	MeanFreq100 float64
	MeanFreq75  float64
	// NormPerf is run throughput normalised to the 140 W run.
	NormPerf float64
}

// Figure7Report reproduces Figure 7: a synthetic benchmark alternating
// 100%- and 75%-CPU-intensity phases under 140 W, 75 W and 35 W budgets.
// At full power both phases get what they need; at 75 W (750 MHz cap) the
// high-intensity phases can no longer be scheduled without loss; at 35 W
// (500 MHz cap) both phases are pinned at the power-constrained frequency.
type Figure7Report struct {
	Budgets []Figure7Budget
}

// Figure7 runs the two-phase budget study.
func Figure7(o Options) (*Figure7Report, error) {
	secs := 0.8*float64(o.Scale) + 0.3
	mk := func(name string, intensity float64) (workload.Phase, error) {
		return workload.SyntheticPhase(name, intensity, secs)
	}
	p100, err := mk("cpu100", 100)
	if err != nil {
		return nil, err
	}
	p75, err := mk("cpu75", 75)
	if err != nil {
		return nil, err
	}
	prog := workload.Program{Name: "fig7"}
	for i := 0; i < 3; i++ {
		prog.Phases = append(prog.Phases, p100, p75)
	}

	rep := &Figure7Report{}
	var base float64
	for _, lim := range Table1Budgets {
		var trace phaseTrace
		rec := &recorder{}
		res, err := o.fvsstRun(1, 0, prog, units.Watts(lim), rec, trace.record(0), nil)
		if err != nil {
			return nil, err
		}
		perf := 1 / res.Seconds
		if lim == 140 {
			base = perf
		}
		b := Figure7Budget{LimitW: lim, NormPerf: perf / base}
		freq := rec.series("freq-mhz")
		var sum100, sum75 float64
		var n100, n75 int
		for _, pt := range freq.Points {
			switch trace.at(pt.T) {
			case "cpu100":
				sum100 += pt.V
				n100++
			case "cpu75":
				sum75 += pt.V
				n75++
			}
		}
		if n100 > 0 {
			b.MeanFreq100 = sum100 / float64(n100)
		}
		if n75 > 0 {
			b.MeanFreq75 = sum75 / float64(n75)
		}
		rep.Budgets = append(rep.Budgets, b)
	}
	return rep, nil
}

// Render formats the report.
func (r *Figure7Report) Render() string {
	t := textTable{
		Title:   "Figure 7: 100%/75% two-phase benchmark under power constraints",
		Headers: []string{"Limit", "mean f (100% phase)", "mean f (75% phase)", "norm perf"},
	}
	for _, b := range r.Budgets {
		t.addRow(
			fmt.Sprintf("%.0fW", b.LimitW),
			fmt.Sprintf("%.0fMHz", b.MeanFreq100),
			fmt.Sprintf("%.0fMHz", b.MeanFreq75),
			fmt.Sprintf("%.3f", b.NormPerf),
		)
	}
	return t.String()
}
