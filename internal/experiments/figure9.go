package experiments

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// Figure9Report reproduces Figures 9 and 10: the actual and desired
// (ε-constrained) frequencies of gap under a 75 W (750 MHz) power limit.
// The desired frequency regularly exceeds the cap; the actual frequency is
// clipped at 750 MHz, so gap "spends more time at 750 MHz than it did
// previously".
type Figure9Report struct {
	// Desired and Actual are the full traces (MHz over seconds).
	Desired *telemetry.Series
	Actual  *telemetry.Series
	// Zoom is the Figure 10 magnification window.
	ZoomDesired *telemetry.Series
	ZoomActual  *telemetry.Series
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
	res, err := o.fvsstRun(1, 0, prog, units.Watts(75), telemetry.NewRecorder(), nil, &passes)
	if err != nil {
		return nil, err
	}
	rep := &Figure9Report{
		Desired: res.Recorder.Series("desired-mhz"),
		Actual:  res.Recorder.Series("actual-mhz"),
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
	if n := rep.Actual.Len(); n > 0 {
		t0 := rep.Actual.Points[2*n/5].T
		t1 := rep.Actual.Points[3*n/5].T
		rep.ZoomDesired = rep.Desired.Between(t0, t1)
		rep.ZoomActual = rep.Actual.Between(t0, t1)
	}
	return rep, nil
}

// WriteCSVTo writes the desired/actual traces to dir/fig9.csv.
func (r *Figure9Report) WriteCSVTo(dir string) error {
	rec := telemetry.RecorderFromSeries(r.Desired, r.Actual)
	return writeCSVFile(dir, "fig9.csv", rec)
}

// Render formats the report.
func (r *Figure9Report) Render() string {
	out := "Figure 9: actual and desired frequencies for gap at 750MHz (75W limit)\n"
	out += telemetry.AsciiOverlay(r.Desired, r.Actual, 10, 72)
	out += "Figure 10: magnified slice\n"
	out += telemetry.AsciiOverlay(r.ZoomDesired, r.ZoomActual, 10, 72)
	out += fmt.Sprintf("windows clipped by the cap: %.0f%%; max actual %.0fMHz\n",
		r.FracClipped*100, r.MaxActualMHz)
	return out
}
