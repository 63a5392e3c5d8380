package experiments

import (
	"fmt"

	"repro/internal/units"
	"repro/internal/workload"
)

// Figure9Report reproduces Figures 9 and 10: the actual and desired
// (ε-constrained) frequencies of gap under a 75 W (750 MHz) power limit.
// The desired frequency regularly exceeds the cap; the actual frequency is
// clipped at 750 MHz, so gap "spends more time at 750 MHz than it did
// previously".
type Figure9Report struct {
	// desired and actual are the full traces (MHz over seconds).
	desired, actual *series
	// zoomDesired and zoomActual are the Figure 10 magnification window.
	zoomDesired, zoomActual *series
	// FracClipped is the fraction of scheduling windows in which the
	// desired frequency exceeded the actual.
	FracClipped float64
	// MaxActualMHz is the highest actual set-point observed.
	MaxActualMHz float64
}

// Figure9 runs gap at 75 W with tracing.
func Figure9(o Options) (*Figure9Report, error) {
	prog := workload.Gap(o.Scale)
	var passes passLog
	rec := &recorder{}
	if _, err := o.fvsstRun(1, 0, prog, units.Watts(75), rec, nil, &passes); err != nil {
		return nil, err
	}
	rep := &Figure9Report{
		desired: rec.series("desired-mhz"),
		actual:  rec.series("actual-mhz"),
	}
	clipped, total := 0, 0
	for _, e := range passes {
		c := e.CPUs[0]
		total++
		if c.DesiredMHz > c.ActualMHz {
			clipped++
		}
		if c.ActualMHz > rep.MaxActualMHz {
			rep.MaxActualMHz = c.ActualMHz
		}
	}
	if total > 0 {
		rep.FracClipped = float64(clipped) / float64(total)
	}
	// Figure 10: magnify the middle fifth of the run.
	if n := len(rep.actual.Points); n > 0 {
		t0 := rep.actual.Points[2*n/5].T
		t1 := rep.actual.Points[3*n/5].T
		rep.zoomDesired = rep.desired.between(t0, t1)
		rep.zoomActual = rep.actual.between(t0, t1)
	}
	return rep, nil
}

// WriteCSVTo writes the desired/actual traces to dir/fig9.csv.
func (r *Figure9Report) WriteCSVTo(dir string) error {
	return writeCSVFile(dir, "fig9.csv", r.desired, r.actual)
}

// Render formats the report.
func (r *Figure9Report) Render() string {
	label := r.desired.Name + "(*) vs " + r.actual.Name + "(+)"
	out := "Figure 9: actual and desired frequencies for gap at 750MHz (75W limit)\n"
	out += asciiPlot(label, 10, 72, r.desired, r.actual)
	out += "Figure 10: magnified slice\n"
	out += asciiPlot(label, 10, 72, r.zoomDesired, r.zoomActual)
	out += fmt.Sprintf("windows clipped by the cap: %.0f%%; max actual %.0fMHz\n",
		r.FracClipped*100, r.MaxActualMHz)
	return out
}
