package experiments

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// Figure5Report reproduces Figure 5 (fvsst response to phase behaviour): a
// two-phase synthetic benchmark alternating CPU- and memory-intensive work
// on timescales longer than T; the scheduler's frequency must track the
// IPC, and power must track the frequency.
type Figure5Report struct {
	// Recorder holds the ipc, freq-mhz, desired-mhz and power series.
	Recorder *telemetry.Recorder
	// MeanFreqCPUPhaseMHz and MeanFreqMemPhaseMHz are the time-weighted
	// mean frequencies during the two phase types.
	MeanFreqCPUPhaseMHz float64
	MeanFreqMemPhaseMHz float64
	// MeanPowerCPUPhaseW and MeanPowerMemPhaseW are the corresponding
	// system powers.
	MeanPowerCPUPhaseW float64
	MeanPowerMemPhaseW float64
	// Transitions is how many phase boundaries the run contained.
	Transitions int
}

// Figure5 runs the phase-tracking study on an unconstrained budget.
func Figure5(o Options) (*Figure5Report, error) {
	// Phase lengths ≫ T = 100 ms so the scheduler can track them (§8.2).
	secs := 1.0*float64(o.Scale) + 0.4
	mk := func(name string, intensity float64) (workload.Phase, error) {
		return workload.SyntheticPhase(name, intensity, secs)
	}
	cpuPhase, err := mk("cpu-phase", 95)
	if err != nil {
		return nil, err
	}
	memPhase, err := mk("mem-phase", 20)
	if err != nil {
		return nil, err
	}
	prog := workload.Program{Name: "phased"}
	const passes = 3
	for i := 0; i < passes; i++ {
		prog.Phases = append(prog.Phases, cpuPhase, memPhase)
	}

	// Run traced; recover per-phase means by splitting the series at
	// phase boundaries observed from the workload cursor.
	var trace phaseTrace
	res, err := o.fvsstRun(1, 0, prog, units.Watts(140), telemetry.NewRecorder(), trace.record(0), nil)
	if err != nil {
		return nil, err
	}
	rep := &Figure5Report{Recorder: res.Recorder}

	freq := res.Recorder.Series("freq-mhz")
	pw := res.Recorder.Series("system-power-w")
	var fCPU, fMem, pCPU, pMem telemetry.Series
	for i, pt := range freq.Points {
		switch trace.at(pt.T) {
		case "cpu-phase":
			fCPU.MustAppend(pt.T, pt.V)
			pCPU.MustAppend(pt.T, pw.Points[i].V)
		case "mem-phase":
			fMem.MustAppend(pt.T, pt.V)
			pMem.MustAppend(pt.T, pw.Points[i].V)
		}
	}
	mean := func(s *telemetry.Series) float64 {
		vals := s.Values()
		if len(vals) == 0 {
			return 0
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return sum / float64(len(vals))
	}
	rep.MeanFreqCPUPhaseMHz = mean(&fCPU)
	rep.MeanFreqMemPhaseMHz = mean(&fMem)
	rep.MeanPowerCPUPhaseW = mean(&pCPU)
	rep.MeanPowerMemPhaseW = mean(&pMem)
	prev := ""
	for _, p := range trace {
		if p.name != prev {
			rep.Transitions++
			prev = p.name
		}
	}
	return rep, nil
}

// WriteCSVTo writes the full per-quantum traces to dir/fig5.csv.
func (r *Figure5Report) WriteCSVTo(dir string) error {
	return writeCSVFile(dir, "fig5.csv", r.Recorder)
}

// Render formats the report.
func (r *Figure5Report) Render() string {
	out := "Figure 5: fvsst response to phase behaviour\n"
	out += telemetry.AsciiChart(r.Recorder.Series("ipc"), 8, 72)
	out += telemetry.AsciiChart(r.Recorder.Series("freq-mhz"), 8, 72)
	out += telemetry.AsciiChart(r.Recorder.Series("system-power-w"), 8, 72)
	out += fmt.Sprintf("mean frequency: cpu-phase %.0fMHz, mem-phase %.0fMHz\n",
		r.MeanFreqCPUPhaseMHz, r.MeanFreqMemPhaseMHz)
	out += fmt.Sprintf("mean system power: cpu-phase %.0fW, mem-phase %.0fW\n",
		r.MeanPowerCPUPhaseW, r.MeanPowerMemPhaseW)
	return out
}
