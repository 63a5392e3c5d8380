// Package experiments regenerates every table and figure of the paper's
// evaluation (§7–§8) plus the §5 worked example, the ablations and the
// cluster, farm and serving studies, each as a function returning a typed
// report with a Render method, listed in Registry. The cmd/experiments
// binary prints them; BenchmarkExperiments in bench_test.go at the
// repository root times each registry entry.
//
// Shape, not absolute numbers: the substrate is a simulator, so each report
// records the qualitative claims that must hold (who wins, where the knees
// are). The claim table in claims_test.go states them per registry ID, and
// TestRunAllClaims checks every one at test scale.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/obs"
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
	// MonteCarlo switches the machine to per-block stochastic execution
	// (internal/machine montecarlo.go) instead of the analytic CPI.
	MonteCarlo bool
}

// machineConfig builds a machine config with the experiment options
// applied.
func (o Options) machineConfig(numCPUs int) machine.Config {
	cfg := machine.P630Config()
	cfg.NumCPUs = numCPUs
	cfg.Seed = o.Seed
	cfg.MonteCarloExec = o.MonteCarlo
	return cfg
}

// newDriver couples m with an fvsst scheduler under cfg at budget. The
// studies of §8 run the prototype's fvsst.DefaultConfig (T = 100 ms,
// t = 10 ms, ε = 5%, Table 1) with at most the field they vary changed.
func newDriver(m *machine.Machine, cfg fvsst.Config, budget units.Power) (*fvsst.Driver, error) {
	s, err := fvsst.New(cfg, m, budget)
	if err != nil {
		return nil, err
	}
	return fvsst.NewDriver(m, s), nil
}

// step advances m by one quantum under drv, or at its pinned frequencies
// when drv is nil.
func step(m *machine.Machine, drv *fvsst.Driver) error {
	if drv != nil {
		return drv.Step()
	}
	return m.StepQuantum()
}

// uniformPin pins every CPU of ms at the highest table frequency whose
// power, times the CPUs of ms, fits budget — the classic "slow everything
// equally" response — and returns that frequency's index. It leaves the
// CPUs alone when the index is last, the one it returned before.
func uniformPin(budget units.Power, last int, ms ...*machine.Machine) (int, error) {
	n := 0
	for _, m := range ms {
		n += m.NumCPUs()
	}
	table := ms[0].Config().Table
	fi := table.UniformIndexUnder(budget, n)
	if fi == last {
		return fi, nil
	}
	f := table.FrequencyAtIndex(fi)
	for _, m := range ms {
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			if err := m.SetFrequency(cpu, f); err != nil {
				return 0, err
			}
		}
	}
	return fi, nil
}

// runResult is one scheduled or pinned run: the completion time in
// simulated seconds, the processor energy and the machine's completion
// log.
type runResult struct {
	Seconds     float64
	CPUEnergy   units.Energy
	Completions []machine.JobCompletion
}

// passLog is a sink that keeps a run's schedule events, the pass history
// Figure 9 and Table 2 read, and drops the passes' span events.
type passLog []obs.Event

func (l *passLog) Emit(e obs.Event) {
	if e.Type == obs.EventSchedule {
		*l = append(*l, e)
	}
}

// runToCompletion steps m (see step) until every job on it completes,
// calling observe, if non-nil, after each step. It fails if a job is still
// running at deadline.
func runToCompletion(m *machine.Machine, drv *fvsst.Driver, deadline float64, observe func(*machine.Machine)) (runResult, error) {
	for m.Now() < deadline && !m.AllJobsDone() {
		if err := step(m, drv); err != nil {
			return runResult{}, err
		}
		if observe != nil {
			observe(m)
		}
	}
	return finished(m, deadline)
}

// finished is the runResult of m's run to deadline, or an error if a job
// is still running.
func finished(m *machine.Machine, deadline float64) (runResult, error) {
	if !m.AllJobsDone() {
		return runResult{}, fmt.Errorf("experiments: jobs still running at the %v s deadline (%d not yet arrived)", deadline, m.PendingArrivals())
	}
	res := runResult{CPUEnergy: m.CPUEnergy(), Completions: m.Completions()}
	if n := len(res.Completions); n > 0 {
		res.Seconds = res.Completions[n-1].At
	}
	return res, nil
}

// fvsstRun runs prog alone on CPU cpu of a numCPUs machine under fvsst
// at budget until it completes — with one CPU, the §8.3/§8.4
// configuration ("the system configured to use only a single
// processor"). A non-nil rec receives, after every step, the machine's
// power and budget and that CPU's IPC, frequency and scheduled desire
// and actual (see recordStep); observe, if non-nil, is called after every
// step too; and sink, if non-nil, receives the scheduler's pass events.
func (o Options) fvsstRun(numCPUs, cpu int, prog workload.Program, budget units.Power, rec *recorder, observe func(*machine.Machine), sink obs.Sink) (runResult, error) {
	progs := make([][]workload.Program, cpu+1)
	progs[cpu] = []workload.Program{prog}
	m, err := machine.New(o.machineConfig(numCPUs), progs...)
	if err != nil {
		return runResult{}, err
	}
	drv, err := newDriver(m, fvsst.DefaultConfig(), budget)
	if err != nil {
		return runResult{}, err
	}
	drv.S.SetSink(sink)
	if rec != nil {
		record, then := recordStep(rec, drv.S, cpu), observe
		observe = func(m *machine.Machine) {
			record(m)
			if then != nil {
				then(m)
			}
		}
	}
	total, _ := prog.TotalInstructions()
	// Generous deadline: even at the 250 MHz floor with CPI 12 the run
	// ends within this bound.
	res, err := runToCompletion(m, drv, float64(total)*12/250e6+10, observe)
	if err != nil {
		return runResult{}, fmt.Errorf("experiments: %s: %w", prog.Name, err)
	}
	return res, nil
}

// recordStep returns an observer that appends one sample per step to
// seven series of rec, created here in CSV column order: the machine's
// system and CPU power and s's budget, then CPU cpu's IPC over the last
// quantum, its effective frequency, and the desired and actual frequency
// of s's latest decision.
func recordStep(rec *recorder, s *fvsst.Scheduler, cpu int) func(*machine.Machine) {
	systemPower := rec.series("system-power-w")
	cpuPower := rec.series("cpu-power-w")
	budget := rec.series("budget-w")
	ipc := rec.series("ipc")
	freq := rec.series("freq-mhz")
	desired := rec.series("desired-mhz")
	actual := rec.series("actual-mhz")
	return func(m *machine.Machine) {
		now := m.Now()
		systemPower.add(now, m.SystemPower().W())
		cpuPower.add(now, m.TotalCPUPower().W())
		budget.add(now, s.Budget().W())
		q := m.LastQuantum(cpu)
		v := 0.0
		if q.Cycles > 0 {
			v = float64(q.Instructions) / float64(q.Cycles)
		}
		ipc.add(now, v)
		freq.add(now, m.EffectiveFrequency(cpu).MHz())
		dec, _ := s.LastDecision()
		a := dec.Assignments[cpu]
		desired.add(now, a.Desired.MHz())
		actual.add(now, a.Actual.MHz())
	}
}

// fixedRun executes a program alone on a single-CPU machine pinned at a
// fixed frequency with no scheduler — the non-fvsst comparison system of
// Table 3 and the frequency sweep of Figure 1.
func (o Options) fixedRun(prog workload.Program, f units.Frequency) (runResult, error) {
	m, err := machine.New(o.machineConfig(1), []workload.Program{prog})
	if err != nil {
		return runResult{}, err
	}
	if err := m.SetFrequency(0, f); err != nil {
		return runResult{}, err
	}
	total, _ := prog.TotalInstructions()
	res, err := runToCompletion(m, nil, float64(total)*20/f.Hz()+10, nil)
	if err != nil {
		return runResult{}, fmt.Errorf("experiments: %s at %v: %w", prog.Name, f, err)
	}
	return res, nil
}

// syntheticSingle builds a one-phase synthetic program at the given CPU
// intensity, sized to run roughly seconds at 1 GHz.
func (o Options) syntheticSingle(intensity float64, seconds float64) (workload.Program, error) {
	// Floor the run length at ~1 s so the scheduler reaches steady state
	// (≥10 scheduling periods) even at test scale.
	span := seconds * float64(o.Scale)
	if span < 1.0 {
		span = 1.0
	}
	phase, err := workload.SyntheticPhase(fmt.Sprintf("cpu%.0f", intensity), intensity, span)
	if err != nil {
		return workload.Program{}, err
	}
	return workload.Program{
		Name:   fmt.Sprintf("synthetic-%.0f", intensity),
		Phases: []workload.Phase{phase},
	}, nil
}

// phaseAt is one time-stamped phase-name observation of the benchmark job.
type phaseAt struct {
	t    float64
	name string
}

// phaseTrace is a traced run's per-step record of its benchmark job's
// phase — what the Table 2, Figure 5 and Figure 7 studies split their
// series at.
type phaseTrace []phaseAt

// record returns an fvsstRun observer that appends, after each step, the
// phase of the first job on CPU cpu ("done" once it has completed).
func (p *phaseTrace) record(cpu int) func(*machine.Machine) {
	return func(m *machine.Machine) {
		job := m.Mix(cpu).Jobs()[0]
		name := "done"
		if !job.Done() {
			name = job.Current().Name
		}
		*p = append(*p, phaseAt{t: m.Now(), name: name})
	}
}

// at is the phase at time t: the one recorded by the first step ending
// at or after t.
func (p phaseTrace) at(t float64) string {
	for _, s := range p {
		if s.t >= t {
			return s.name
		}
	}
	return "done"
}

// CSVWriter is implemented by reports that carry full traces worth
// exporting for external plotting.
type CSVWriter interface {
	WriteCSVTo(dir string) error
}

// writeCSVFile writes ss to dir/name (see writeCSV).
func writeCSVFile(dir, name string, ss ...*series) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return writeCSV(f, ss...)
}

// Table1Budgets are the three operating budgets of Table 3 / §8.4.
var Table1Budgets = []float64{140, 75, 35}
