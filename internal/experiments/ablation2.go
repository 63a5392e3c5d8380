package experiments

import (
	"fmt"
	"sort"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/perfmodel"
	"repro/internal/units"
	"repro/internal/workload"
)

// AblationMaskingReport quantifies the §5 caveat: "the use of aggregate
// performance counter data on each processor may mask the presence of a
// high CPU-intensity application among many memory-intensive applications.
// A reduced frequency in such a case will produce a larger performance
// loss than predicted." One CPU multiprograms one CPU-bound job with three
// memory-bound jobs; the scheduler sees only the aggregate.
type AblationMaskingReport struct {
	// ChosenMHz is the frequency the scheduler settled on for the mix.
	ChosenMHz float64
	// AggregatePredictedLoss is the loss the scheduler believed it was
	// accepting (must be < ε).
	AggregatePredictedLoss float64
	// PerJobTrueLoss maps each job to the loss *that job* actually
	// suffers at the chosen frequency.
	PerJobTrueLoss map[string]float64
	// MaskedJob is the job whose true loss most exceeds the aggregate
	// prediction.
	MaskedJob     string
	MaskedJobLoss float64
	Epsilon       float64
}

// jobDecomposition folds a program's phases into one instruction-weighted
// decomposition (its "true" average behaviour).
func jobDecomposition(p workload.Program) (perfmodel.Decomposition, error) {
	h := memhier.P630()
	var instr, invAlphaW, stallW float64
	for _, ph := range p.Phases {
		w := float64(ph.Instructions)
		instr += w
		invAlphaW += w * (1/ph.Alpha + ph.NonMemStallCyclesPerInstr)
		stallW += w * ph.StallTimePerInstr(h)
	}
	if instr == 0 {
		return perfmodel.Decomposition{}, fmt.Errorf("experiments: empty program %s", p.Name)
	}
	return perfmodel.Decomposition{
		InvAlpha:         invAlphaW / instr,
		StallSecPerInstr: stallW / instr,
	}, nil
}

// AblationMasking runs the multiprogramming study.
func AblationMasking(o Options) (*AblationMaskingReport, error) {
	mkSynth := func(name string, intensity, seconds float64) (workload.Program, error) {
		span := seconds * float64(o.Scale)
		if span < 0.5 {
			span = 0.5
		}
		phase, err := workload.SyntheticPhase(name, intensity, span)
		if err != nil {
			return workload.Program{}, err
		}
		return workload.Program{Name: name, Phases: []workload.Phase{phase}}, nil
	}
	cpuJob, err := mkSynth("cpu-job", 100, 2)
	if err != nil {
		return nil, err
	}
	var progs []workload.Program
	progs = append(progs, cpuJob)
	for i := 0; i < 3; i++ {
		memJob, err := mkSynth(fmt.Sprintf("mem-job%d", i), 10, 2)
		if err != nil {
			return nil, err
		}
		progs = append(progs, memJob)
	}

	m, err := machine.New(o.machineConfig(1), progs)
	if err != nil {
		return nil, err
	}
	cfg := fvsst.DefaultConfig()
	drv, err := newDriver(m, cfg, units.Watts(140))
	if err != nil {
		return nil, err
	}
	if err := drv.Run(1.5); err != nil {
		return nil, err
	}
	d, ok := drv.S.LastDecision()
	if !ok {
		return nil, fmt.Errorf("experiments: no decision")
	}
	a := d.Assignments[0]
	rep := &AblationMaskingReport{
		ChosenMHz:              a.Actual.MHz(),
		AggregatePredictedLoss: a.PredictedLoss,
		PerJobTrueLoss:         map[string]float64{},
		Epsilon:                cfg.Epsilon,
	}
	set := cfg.Table.Frequencies()
	for _, p := range progs {
		dec, err := jobDecomposition(p)
		if err != nil {
			return nil, err
		}
		loss := dec.PerfLoss(set.Max(), a.Actual)
		rep.PerJobTrueLoss[p.Name] = loss
		if loss > rep.MaskedJobLoss {
			rep.MaskedJob = p.Name
			rep.MaskedJobLoss = loss
		}
	}
	return rep, nil
}

// Render formats the report.
func (r *AblationMaskingReport) Render() string {
	out := fmt.Sprintf(
		"Ablation: aggregation masking (1 CPU-bound + 3 memory-bound jobs, one CPU)\n"+
			"  scheduler chose %.0fMHz believing the aggregate loses %.1f%% (ε=%.0f%%)\n",
		r.ChosenMHz, r.AggregatePredictedLoss*100, r.Epsilon*100)
	// Sorted order: map iteration order would make same-seed runs differ
	// byte-for-byte, which the determinism regression tests forbid.
	names := make([]string, 0, len(r.PerJobTrueLoss))
	for name := range r.PerJobTrueLoss {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out += fmt.Sprintf("    %-9s true loss %.1f%%\n", name, r.PerJobTrueLoss[name]*100)
	}
	out += fmt.Sprintf("  masked job %s loses %.1f%% — %0.1f× the ε bound\n",
		r.MaskedJob, r.MaskedJobLoss*100, r.MaskedJobLoss/r.Epsilon)
	return out
}

// AblationActuatorReport validates the §6 assumption that fetch throttling
// approximates true frequency scaling: the same workload and budget under
// the default throttle, a coarse throttle, and an idealised DVFS actuator.
type AblationActuatorReport struct {
	Rows []AblationActuatorRow
}

// AblationActuatorRow is one actuator variant's outcome.
type AblationActuatorRow struct {
	Name      string
	Seconds   float64
	CPUEnergy units.Energy
}

// AblationActuator runs gap at a 75 W budget under three actuators.
func AblationActuator(o Options) (*AblationActuatorReport, error) {
	variants := []struct {
		name   string
		steps  int
		settle float64
	}{
		{"fetch-throttle (default)", 100, 0.0005},
		{"coarse throttle (10 steps, 10ms settle)", 10, 0.010},
		{"ideal DVFS (continuous, instant)", 1_000_000, 0},
	}
	rep := &AblationActuatorReport{}
	for _, v := range variants {
		mcfg := o.machineConfig(1)
		mcfg.ThrottleSteps = v.steps
		mcfg.ThrottleSettle = v.settle
		m, err := machine.New(mcfg, []workload.Program{workload.Gap(o.Scale)})
		if err != nil {
			return nil, err
		}
		drv, err := newDriver(m, fvsst.DefaultConfig(), units.Watts(75))
		if err != nil {
			return nil, err
		}
		res, err := runToCompletion(m, drv, 600, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: actuator %s: %w", v.name, err)
		}
		rep.Rows = append(rep.Rows, AblationActuatorRow{
			Name:      v.name,
			Seconds:   res.Seconds,
			CPUEnergy: res.CPUEnergy,
		})
	}
	return rep, nil
}

// Render formats the report.
func (r *AblationActuatorReport) Render() string {
	t := textTable{
		Title:   "Ablation: actuator fidelity (gap at 75W budget)",
		Headers: []string{"Actuator", "runtime (s)", "CPU energy", "vs default"},
	}
	base := r.Rows[0].Seconds
	for _, row := range r.Rows {
		t.addRow(row.Name,
			fmt.Sprintf("%.2f", row.Seconds),
			row.CPUEnergy.String(),
			fmt.Sprintf("%+.1f%%", (row.Seconds/base-1)*100))
	}
	return t.String()
}

// AblationEpsilonReport sweeps the scheduler's ε on mcf at full budget,
// exposing the performance/energy trade the parameter controls and the §5
// constraint that ε must exceed the minimum frequency step to have any
// effect.
type AblationEpsilonReport struct {
	Rows []AblationEpsilonRow
}

// AblationEpsilonRow is one ε setting's outcome.
type AblationEpsilonRow struct {
	Epsilon float64
	// NormPerf is throughput normalised to a fixed 1 GHz run.
	NormPerf float64
	// NormEnergy is CPU energy normalised to the fixed run.
	NormEnergy float64
}

// AblationEpsilon runs the sweep.
func AblationEpsilon(o Options) (*AblationEpsilonReport, error) {
	prog := workload.Mcf(o.Scale)
	ref, err := o.fixedRun(prog, units.GHz(1))
	if err != nil {
		return nil, err
	}
	rep := &AblationEpsilonReport{}
	for _, eps := range []float64{0.02, 0.05, 0.10, 0.15, 0.25} {
		m, err := machine.New(o.machineConfig(1), []workload.Program{prog})
		if err != nil {
			return nil, err
		}
		cfg := fvsst.DefaultConfig()
		cfg.Epsilon = eps
		drv, err := newDriver(m, cfg, units.Watts(140))
		if err != nil {
			return nil, err
		}
		res, err := runToCompletion(m, drv, 600, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: epsilon %v: %w", eps, err)
		}
		rep.Rows = append(rep.Rows, AblationEpsilonRow{
			Epsilon:    eps,
			NormPerf:   ref.Seconds / res.Seconds,
			NormEnergy: res.CPUEnergy.J() / ref.CPUEnergy.J(),
		})
	}
	return rep, nil
}

// Render formats the report.
func (r *AblationEpsilonReport) Render() string {
	t := textTable{
		Title:   "Ablation: ε sweep (mcf, unconstrained budget, vs fixed 1GHz run)",
		Headers: []string{"ε", "norm perf", "norm CPU energy"},
	}
	for _, row := range r.Rows {
		t.addRow(
			fmt.Sprintf("%.0f%%", row.Epsilon*100),
			fmt.Sprintf("%.3f", row.NormPerf),
			fmt.Sprintf("%.3f", row.NormEnergy),
		)
	}
	return t.String()
}
