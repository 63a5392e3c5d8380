// Package experiments regenerates every table and figure of the paper's
// evaluation (§7–§8) plus the §5 worked example and three ablations, each
// as a function returning a typed report with a Render method. The cmd/
// experiments binary prints them; bench_test.go at the repository root
// exposes one testing.B benchmark per experiment.
//
// Shape, not absolute numbers: the substrate is a simulator, so each report
// records the qualitative claims that must hold (who wins, where the knees
// are) and the experiment tests assert those.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// Options tunes experiment cost versus fidelity.
type Options struct {
	// Scale multiplies workload lengths (1 = paper-scale multi-second
	// runs; tests use ~0.05).
	Scale workload.AppScale
	// Seed drives all stochastic machine effects.
	Seed int64
	// Quiet disables latency jitter, contention and throttle settling for
	// exact-arithmetic variants.
	Quiet bool
	// MonteCarlo switches the machine to per-block stochastic execution
	// (internal/machine montecarlo.go) instead of the analytic CPI.
	MonteCarlo bool
}

// DefaultOptions is the paper-scale configuration.
func DefaultOptions() Options { return Options{Scale: 1, Seed: 1} }

// TestOptions is the fast configuration used by the test suite.
func TestOptions() Options { return Options{Scale: 0.05, Seed: 1} }

// machineConfig builds a machine config with the experiment options
// applied.
func (o Options) machineConfig(numCPUs int) machine.Config {
	cfg := machine.P630Config()
	cfg.NumCPUs = numCPUs
	cfg.Seed = o.Seed
	cfg.MonteCarloExec = o.MonteCarlo
	if o.Quiet {
		cfg.LatencyJitterSigma = 0
		cfg.Contention = memhier.Contention{}
		cfg.ThrottleSettle = 0
	}
	return cfg
}

// schedConfig is the prototype scheduler configuration (T = 100 ms,
// t = 10 ms, ε = 5%, Table 1 settings) used throughout §8.
func (o Options) schedConfig() fvsst.Config {
	return fvsst.DefaultConfig()
}

// singleRun executes one program alone on a single-CPU machine under fvsst
// with the given per-CPU power budget (the §8.3/§8.4 configuration: "the
// system configured to use only a single processor"). It returns the
// completion time in simulated seconds, the processor energy, and the
// decision log. maxFreqCap, when non-zero, additionally caps the frequency
// set (the Figure 8 presentation of budgets as frequency caps).
type runResult struct {
	Seconds   float64
	CPUEnergy units.Energy
	Decisions []fvsst.Decision
	Recorder  *telemetry.Recorder
}

func (o Options) singleRun(prog workload.Program, budget units.Power, trace bool) (runResult, error) {
	mcfg := o.machineConfig(1)
	m, err := machine.New(mcfg)
	if err != nil {
		return runResult{}, err
	}
	mix, err := workload.NewMix(prog)
	if err != nil {
		return runResult{}, err
	}
	if err := m.SetMix(0, mix); err != nil {
		return runResult{}, err
	}
	s, err := fvsst.New(o.schedConfig(), m, budget)
	if err != nil {
		return runResult{}, err
	}
	drv := fvsst.NewDriver(m, s)
	if trace {
		drv.Recorder = telemetry.NewRecorder()
		drv.TraceCPU = 0
	}
	total, _ := prog.TotalInstructions()
	// Generous deadline: even at the 250 MHz floor with CPI 12 the run
	// ends within this bound.
	deadline := float64(total)*12/250e6 + 10
	done, err := drv.RunUntilAllDone(deadline)
	if err != nil {
		return runResult{}, err
	}
	if !done {
		return runResult{}, fmt.Errorf("experiments: %s did not finish within %v simulated seconds", prog.Name, deadline)
	}
	comps := m.Completions()
	end := comps[len(comps)-1].At
	return runResult{
		Seconds:   end,
		CPUEnergy: m.CPUEnergy(),
		Decisions: s.Decisions(),
		Recorder:  drv.Recorder,
	}, nil
}

// fixedRun executes a program alone on a single-CPU machine pinned at a
// fixed frequency with no scheduler — the non-fvsst comparison system of
// Table 3 and the frequency sweep of Figure 1.
func (o Options) fixedRun(prog workload.Program, f units.Frequency) (runResult, error) {
	mcfg := o.machineConfig(1)
	m, err := machine.New(mcfg)
	if err != nil {
		return runResult{}, err
	}
	mix, err := workload.NewMix(prog)
	if err != nil {
		return runResult{}, err
	}
	if err := m.SetMix(0, mix); err != nil {
		return runResult{}, err
	}
	if err := m.SetFrequency(0, f); err != nil {
		return runResult{}, err
	}
	total, _ := prog.TotalInstructions()
	deadline := float64(total)*20/f.Hz() + 10
	if done, err := m.RunUntilAllDone(deadline); err != nil {
		return runResult{}, err
	} else if !done {
		return runResult{}, fmt.Errorf("experiments: %s at %v did not finish", prog.Name, f)
	}
	comps := m.Completions()
	return runResult{Seconds: comps[len(comps)-1].At, CPUEnergy: m.CPUEnergy()}, nil
}

// syntheticSingle builds a one-phase synthetic program at the given CPU
// intensity, sized to run roughly seconds at 1 GHz.
func (o Options) syntheticSingle(intensity float64, seconds float64) (workload.Program, error) {
	h := memhier.P630()
	probe, err := workload.SyntheticIntensityPhase("probe", intensity, 1000, h)
	if err != nil {
		return workload.Program{}, err
	}
	// Floor the run length at ~1 s so the scheduler reaches steady state
	// (≥10 scheduling periods) even at test scale.
	span := seconds * float64(o.Scale)
	if span < 1.0 {
		span = 1.0
	}
	instr := workload.InstructionsForDuration(probe, h, 1e9, span)
	phase, err := workload.SyntheticIntensityPhase(
		fmt.Sprintf("cpu%.0f", intensity), intensity, instr, h)
	if err != nil {
		return workload.Program{}, err
	}
	return workload.Program{
		Name:   fmt.Sprintf("synthetic-%.0f", intensity),
		Phases: []workload.Phase{phase},
	}, nil
}

// budgetFor converts the paper's "power limit" wattages into scheduler
// budgets (they are per-processor CPU budgets in the single-CPU studies).
func budgetFor(w float64) units.Power { return units.Watts(w) }

// phaseAt is one time-stamped phase-name observation of the benchmark job.
type phaseAt struct {
	t    float64
	name string
}

// tracedRunOn runs prog on CPU benchCPU of a numCPUs machine under fvsst
// with full telemetry and a per-quantum phase trace of the benchmark job —
// the shared machinery behind the Table 2, Figure 5 and Figure 9 studies.
func (o Options) tracedRunOn(numCPUs, benchCPU int, prog workload.Program, budget units.Power) (runResult, []phaseAt, error) {
	mcfg := o.machineConfig(numCPUs)
	m, err := machine.New(mcfg)
	if err != nil {
		return runResult{}, nil, err
	}
	mix, err := workload.NewMix(prog)
	if err != nil {
		return runResult{}, nil, err
	}
	if err := m.SetMix(benchCPU, mix); err != nil {
		return runResult{}, nil, err
	}
	s, err := fvsst.New(o.schedConfig(), m, budget)
	if err != nil {
		return runResult{}, nil, err
	}
	drv := fvsst.NewDriver(m, s)
	drv.Recorder = telemetry.NewRecorder()
	drv.TraceCPU = benchCPU

	var trace []phaseAt
	job := mix.Jobs()[0]
	total, _ := prog.TotalInstructions()
	deadline := float64(total)*12/250e6 + 10
	for m.Now() < deadline && !m.AllJobsDone() {
		if err := drv.Step(); err != nil {
			return runResult{}, nil, err
		}
		name := "done"
		if !job.Done() {
			name = job.Current().Name
		}
		trace = append(trace, phaseAt{t: m.Now(), name: name})
	}
	if !m.AllJobsDone() {
		return runResult{}, nil, fmt.Errorf("experiments: %s did not finish within %v simulated seconds", prog.Name, deadline)
	}
	comps := m.Completions()
	return runResult{
		Seconds:   comps[len(comps)-1].At,
		CPUEnergy: m.CPUEnergy(),
		Decisions: s.Decisions(),
		Recorder:  drv.Recorder,
	}, trace, nil
}

// tracedRun is tracedRunOn for the single-CPU configuration of §8.3.
func (o Options) tracedRun(prog workload.Program, budget units.Power) (runResult, []phaseAt, error) {
	return o.tracedRunOn(1, 0, prog, budget)
}

// CSVWriter is implemented by reports that carry full traces worth
// exporting for external plotting.
type CSVWriter interface {
	WriteCSVTo(dir string) error
}

// writeCSVFile writes one recorder to dir/name.
func writeCSVFile(dir, name string, rec *telemetry.Recorder) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return rec.WriteCSV(f)
}

// Table1Budgets are the three operating budgets of Table 3 / §8.4.
var Table1Budgets = []float64{140, 75, 35}
