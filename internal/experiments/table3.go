package experiments

import (
	"fmt"

	"repro/internal/units"
	"repro/internal/workload"
)

// Table3Cell is one benchmark × budget measurement.
type Table3Cell struct {
	// Perf is throughput normalised to the unconstrained (140 W) fvsst
	// run — the paper's "Perf @ …" rows.
	Perf float64
	// Energy is processor energy normalised to a non-fvsst system running
	// the benchmark pinned at 1 GHz / 140 W — the paper's "Energy @ …"
	// rows.
	Energy float64
}

// Table3Report reproduces Table 3: performance and energy for gzip, gap,
// mcf and health under 140 W, 75 W and 35 W budgets.
type Table3Report struct {
	Apps    []string
	Budgets []float64
	// Cells[app][budget index].
	Cells map[string][]Table3Cell
	// Paper holds the published values for side-by-side rendering.
	Paper map[string][]Table3Cell
}

// paperTable3 is Table 3 verbatim.
func paperTable3() map[string][]Table3Cell {
	return map[string][]Table3Cell{
		"gzip":   {{1, 0.94}, {0.79, 0.68}, {0.52, 0.47}},
		"gap":    {{1, 0.88}, {0.80, 0.67}, {0.54, 0.47}},
		"mcf":    {{1, 0.43}, {0.99, 0.43}, {0.81, 0.31}},
		"health": {{1, 0.43}, {1, 0.43}, {0.72, 0.35}},
	}
}

// Table3 runs the four applications under the three budgets.
func Table3(o Options) (*Table3Report, error) {
	rep := &Table3Report{
		Apps:    []string{"gzip", "gap", "mcf", "health"},
		Budgets: Table1Budgets,
		Cells:   map[string][]Table3Cell{},
		Paper:   paperTable3(),
	}
	for _, app := range rep.Apps {
		prog, err := workload.App(app, o.Scale)
		if err != nil {
			return nil, err
		}
		// The non-fvsst reference: pinned at 1 GHz, drawing 140 W whenever
		// running.
		ref, err := o.fixedRun(prog, units.GHz(1))
		if err != nil {
			return nil, err
		}
		var base float64
		cells := make([]Table3Cell, 0, len(rep.Budgets))
		for _, lim := range rep.Budgets {
			res, err := o.fvsstRun(1, 0, prog, units.Watts(lim), nil, nil, nil)
			if err != nil {
				return nil, err
			}
			perf := 1 / res.Seconds
			if lim == 140 {
				base = perf
			}
			cells = append(cells, Table3Cell{
				Perf:   perf / base,
				Energy: res.CPUEnergy.J() / ref.CPUEnergy.J(),
			})
		}
		rep.Cells[app] = cells
	}
	return rep, nil
}

// Render formats the report with measured-vs-paper pairs.
func (r *Table3Report) Render() string {
	t := textTable{
		Title:   "Table 3: performance and energy under constraint (measured / paper)",
		Headers: []string{"Metric", "gzip", "gap", "mcf", "health"},
	}
	for bi, lim := range r.Budgets {
		row := []string{fmt.Sprintf("Perf @ %.0fW", lim)}
		for _, app := range r.Apps {
			row = append(row, fmt.Sprintf("%s / %s",
				formatNorm(r.Cells[app][bi].Perf),
				formatNorm(r.Paper[app][bi].Perf)))
		}
		t.addRow(row...)
	}
	for bi, lim := range r.Budgets {
		row := []string{fmt.Sprintf("Energy @ %.0fW", lim)}
		for _, app := range r.Apps {
			row = append(row, fmt.Sprintf("%s / %s",
				formatNorm(r.Cells[app][bi].Energy),
				formatNorm(r.Paper[app][bi].Energy)))
		}
		t.addRow(row...)
	}
	return t.String()
}
