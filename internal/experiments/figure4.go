package experiments

import (
	"fmt"

	"repro/internal/units"
)

// Figure4Row compares synthetic benchmark throughput with and without the
// fvsst daemon at one CPU intensity.
type Figure4Row struct {
	IntensityPct float64
	// Degradation is 1 − throughput(fvsst)/throughput(bare): the
	// prototype's total cost including its own CPU time and any
	// misprediction-induced throttling.
	Degradation float64
}

// Figure4Report reproduces Figure 4: the performance impact of running
// fvsst stays small (≤3%), largest at CPU-intensive settings.
type Figure4Report struct {
	Rows []Figure4Row
}

// Figure4 runs the overhead study on an unconstrained budget.
func Figure4(o Options) (*Figure4Report, error) {
	rep := &Figure4Report{}
	for _, intensity := range []float64{100, 75, 50, 25} {
		prog, err := o.syntheticSingle(intensity, 3.0)
		if err != nil {
			return nil, err
		}
		bare, err := o.fixedRun(prog, units.GHz(1))
		if err != nil {
			return nil, err
		}
		managed, err := o.fvsstRun(1, 0, prog, units.Watts(140), nil, nil, nil)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, Figure4Row{
			IntensityPct: intensity,
			Degradation:  1 - bare.Seconds/managed.Seconds,
		})
	}
	return rep, nil
}

// Render formats the report.
func (r *Figure4Report) Render() string {
	t := textTable{
		Title:   "Figure 4: fvsst overhead (throughput degradation vs unmanaged run)",
		Headers: []string{"CPU intensity", "degradation"},
	}
	for _, row := range r.Rows {
		t.addRow(fmt.Sprintf("%.0f", row.IntensityPct), fmt.Sprintf("%.2f%%", row.Degradation*100))
	}
	return t.String()
}
