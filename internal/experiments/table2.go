package experiments

import (
	"fmt"
	"math"

	"repro/internal/units"
	"repro/internal/workload"
)

// Table2Row is the predictor IPC deviation of one synthetic intensity:
// mean |predicted − observed| IPC per scheduling window, per CPU, plus the
// CPU3* column that excludes the benchmark's initialisation and
// termination phases.
type Table2Row struct {
	IntensityPct float64
	DevCPU       [4]float64
	DevCPU3Star  float64
	Windows      int
}

// Table2Report reproduces Table 2 (predictor error): the benchmark runs on
// CPU 3, CPUs 0–2 run the hot idle loop, and prediction accuracy is
// evaluated window against following window.
type Table2Report struct {
	Rows []Table2Row
}

// table2Program builds the synthetic benchmark with erratic init and exit
// phases: real initialisation (allocating and touching a multi-GB
// footprint) thrashes between memory- and CPU-bound behaviour faster than
// a scheduling window, which is exactly what defeats the one-window
// predictor and produces the paper's large CPU3-minus-CPU3* gap.
func table2Program(o Options, intensity float64) (workload.Program, error) {
	var phases []workload.Phase
	// Init: 8 alternating ~40 ms micro-phases (shorter than T = 100 ms).
	for i := 0; i < 8; i++ {
		in := 5.0
		if i%2 == 1 {
			in = 95
		}
		ph, err := workload.SyntheticPhase("init", in, 0.04*float64(o.Scale)+0.02)
		if err != nil {
			return workload.Program{}, err
		}
		phases = append(phases, ph)
	}
	// Measurement: two phases at the row's intensity.
	for i := 0; i < 2; i++ {
		ph, err := workload.SyntheticPhase(fmt.Sprintf("main%d", i), intensity, 1.5*float64(o.Scale)+0.3)
		if err != nil {
			return workload.Program{}, err
		}
		phases = append(phases, ph)
	}
	// Exit: 4 alternating micro-phases.
	for i := 0; i < 4; i++ {
		in := 90.0
		if i%2 == 1 {
			in = 10
		}
		ph, err := workload.SyntheticPhase("exit", in, 0.04*float64(o.Scale)+0.02)
		if err != nil {
			return workload.Program{}, err
		}
		phases = append(phases, ph)
	}
	return workload.Program{Name: fmt.Sprintf("table2-%.0f", intensity), Phases: phases}, nil
}

// Table2 runs the predictor-accuracy study.
func Table2(o Options) (*Table2Report, error) {
	rep := &Table2Report{}
	for _, intensity := range []float64{100, 75, 50, 25} {
		row, err := table2Row(o, intensity)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func table2Row(o Options, intensity float64) (Table2Row, error) {
	prog, err := table2Program(o, intensity)
	if err != nil {
		return Table2Row{}, err
	}
	var trace phaseTrace
	var passes passLog
	if _, err := o.fvsstRun(4, 3, prog, units.Watts(560), nil, trace.record(3), &passes); err != nil {
		return Table2Row{}, err
	}

	// Deviation: the pass at window i predicts the IPC of window i+1;
	// compare against window i+1's observation.
	row := Table2Row{IntensityPct: intensity}
	var sums [4]float64
	var counts [4]int
	var sumStar float64
	var countStar int
	for i := 1; i < len(passes); i++ {
		prev, cur := passes[i-1], passes[i]
		for cpu := 0; cpu < 4; cpu++ {
			pred := prev.CPUs[cpu].PredictedIPC
			obs := cur.CPUs[cpu].ObservedIPC
			if pred == 0 || obs == 0 {
				continue
			}
			dev := math.Abs(pred - obs)
			sums[cpu] += dev
			counts[cpu]++
			if cpu == 3 {
				name := trace.at(cur.At)
				if name != "init" && name != "exit" && name != "done" {
					sumStar += dev
					countStar++
				}
			}
		}
	}
	for cpu := 0; cpu < 4; cpu++ {
		if counts[cpu] > 0 {
			row.DevCPU[cpu] = sums[cpu] / float64(counts[cpu])
		}
	}
	if countStar > 0 {
		row.DevCPU3Star = sumStar / float64(countStar)
	}
	row.Windows = counts[3]
	return row, nil
}

// Render formats the report.
func (r *Table2Report) Render() string {
	t := textTable{
		Title:   "Table 2: predictor error (mean |predicted−observed| IPC per window)",
		Headers: []string{"CPU intensity", "CPU0", "CPU1", "CPU2", "CPU3", "CPU3*"},
	}
	for _, row := range r.Rows {
		t.addRow(
			fmt.Sprintf("%.0f", row.IntensityPct),
			fmt.Sprintf("%.3f", row.DevCPU[0]),
			fmt.Sprintf("%.3f", row.DevCPU[1]),
			fmt.Sprintf("%.3f", row.DevCPU[2]),
			fmt.Sprintf("%.3f", row.DevCPU[3]),
			fmt.Sprintf("%.3f", row.DevCPU3Star),
		)
	}
	return t.String() + "CPU3* excludes initialisation and termination phases.\n"
}
