package experiments

import (
	"fmt"

	"repro/internal/fvsst"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// WorkedExampleReport reproduces the §5 sample calculation on the
// motivating system: four CPUs, frequency set {0.6..1.0 GHz}, a power
// supply failure at T0 leaving a 294 W processor budget, and a workload
// shift on processor 0 at T1 that lets everything fit at its ε-constrained
// frequency.
type WorkedExampleReport struct {
	// T0Desired/T0Actual are the ε-constrained and budget-fitted vectors
	// right after the failure.
	T0Desired []units.Frequency
	T0Actual  []units.Frequency
	T0PowerW  float64
	T0Losses  []float64
	// T1 vectors after processor 0 becomes memory-intensive.
	T1Desired []units.Frequency
	T1Actual  []units.Frequency
	T1PowerW  float64
	T1Losses  []float64
	BudgetW   float64
}

// WorkedExample computes the §5 example analytically from decompositions
// that produce the paper's ε-constrained vectors.
func WorkedExample() (*WorkedExampleReport, error) {
	tab := power.Section5Table()
	const eps = 0.05
	budget := units.Watts(294)

	mk := func(alpha, stallNs float64) *perfmodel.Decomposition {
		return &perfmodel.Decomposition{InvAlpha: 1 / alpha, StallSecPerInstr: stallNs * 1e-9}
	}
	// T0 workloads: CPU0 CPU-bound, CPU1 strongly memory-bound, CPU2/3
	// moderately memory-bound → ε-vector [1.0, 0.7, 0.8, 0.8] GHz.
	decs := []*perfmodel.Decomposition{
		mk(1.4, 0.1), mk(1.1, 8.44), mk(1.2, 5.2), mk(1.2, 5.2),
	}
	rep := &WorkedExampleReport{BudgetW: budget.W()}

	p := fvsst.NewPass(fvsst.Config{Table: tab, Epsilon: eps})
	compute := func() ([]units.Frequency, []units.Frequency, float64, []float64, error) {
		p.Begin(len(decs))
		for i, d := range decs {
			if err := p.Observe(i, *d); err != nil {
				return nil, nil, 0, nil, err
			}
		}
		p.Fit(budget)
		losses := make([]float64, len(decs))
		for i := range decs {
			losses[i], _, _ = p.Predicted(i)
		}
		return tab.FrequenciesAtIndices(p.Desired()), tab.FrequenciesAtIndices(p.Actual()), p.TablePower().W(), losses, nil
	}

	var err error
	rep.T0Desired, rep.T0Actual, rep.T0PowerW, rep.T0Losses, err = compute()
	if err != nil {
		return nil, err
	}

	// T1: processor 0's aggregate becomes memory-intensive (ε-frequency
	// 0.6 GHz); now everything fits ε-constrained at 282 W.
	decs[0] = mk(1.0, 12)
	rep.T1Desired, rep.T1Actual, rep.T1PowerW, rep.T1Losses, err = compute()
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Render formats the report.
func (r *WorkedExampleReport) Render() string {
	t := textTable{
		Title:   fmt.Sprintf("§5 worked example (budget %.0fW, set {0.6..1.0GHz})", r.BudgetW),
		Headers: []string{"", "CPU0", "CPU1", "CPU2", "CPU3", "ΣP"},
	}
	fm := func(fs []units.Frequency, i int) string { return fs[i].String() }
	t.addRow("T0 ε-constrained", fm(r.T0Desired, 0), fm(r.T0Desired, 1), fm(r.T0Desired, 2), fm(r.T0Desired, 3), "")
	t.addRow("T0 actual", fm(r.T0Actual, 0), fm(r.T0Actual, 1), fm(r.T0Actual, 2), fm(r.T0Actual, 3), fmt.Sprintf("%.0fW", r.T0PowerW))
	t.addRow("T1 ε-constrained", fm(r.T1Desired, 0), fm(r.T1Desired, 1), fm(r.T1Desired, 2), fm(r.T1Desired, 3), "")
	t.addRow("T1 actual", fm(r.T1Actual, 0), fm(r.T1Actual, 1), fm(r.T1Actual, 2), fm(r.T1Actual, 3), fmt.Sprintf("%.0fW", r.T1PowerW))
	out := t.String()
	out += "T0 losses:"
	for _, l := range r.T0Losses {
		out += fmt.Sprintf(" %.1f%%", l*100)
	}
	out += "\nT1 losses:"
	for _, l := range r.T1Losses {
		out += fmt.Sprintf(" %.1f%%", l*100)
	}
	return out + "\n"
}
