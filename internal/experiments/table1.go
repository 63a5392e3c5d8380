package experiments

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/units"
)

// Table1Row is one operating point with the paper's Lava-generated power
// and the value our fitted CV²f+BV² analytic model regenerates.
type Table1Row struct {
	Freq    units.Frequency
	Voltage units.Voltage
	PaperW  float64
	ModelW  float64
	RelErr  float64
}

// Table1Report regenerates the paper's Table 1 (frequencies available for
// scheduling with their peak powers) and quantifies how well the analytic
// power model of §4.4 reproduces the circuit-tool numbers.
type Table1Report struct {
	Rows       []Table1Row
	FittedC    units.Capacitance
	FittedB    float64
	WorstError float64
}

// Table1 fits the analytic model to the embedded Table 1 and evaluates it
// at every operating point.
func Table1() (*Table1Report, error) {
	tab := power.PaperTable1()
	model, err := power.FitModel(tab, power.DefaultVoltageCurve())
	if err != nil {
		return nil, err
	}
	rep := &Table1Report{FittedC: model.C, FittedB: model.B}
	for _, p := range tab.Points() {
		got := model.PowerAt(p.F, p.V)
		rel := (got.W() - p.P.W()) / p.P.W()
		if rel < 0 {
			rel = -rel
		}
		rep.Rows = append(rep.Rows, Table1Row{
			Freq:    p.F,
			Voltage: p.V,
			PaperW:  p.P.W(),
			ModelW:  got.W(),
			RelErr:  rel,
		})
		if rel > rep.WorstError {
			rep.WorstError = rel
		}
	}
	return rep, nil
}

// Render formats the report as text.
func (r *Table1Report) Render() string {
	t := textTable{
		Title:   "Table 1: frequencies available for scheduling (paper vs fitted CV²f+BV² model)",
		Headers: []string{"Frequency", "Vmin", "Paper (W)", "Model (W)", "err"},
	}
	for _, row := range r.Rows {
		t.addRow(
			row.Freq.String(),
			row.Voltage.String(),
			fmt.Sprintf("%.0f", row.PaperW),
			fmt.Sprintf("%.1f", row.ModelW),
			fmt.Sprintf("%.1f%%", row.RelErr*100),
		)
	}
	return t.String() + fmt.Sprintf("fit: C=%.1fnF  B=%.2fW/V²  worst error %.1f%%\n",
		r.FittedC.F()*1e9, r.FittedB, r.WorstError*100)
}
