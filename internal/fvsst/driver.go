package fvsst

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/telemetry"
)

// ErrCascade is returned by Driver.Step when the power plant cascade-fails:
// the machine stayed over the surviving supplies' capacity for longer than
// their ΔT tolerance (§2). The simulation cannot meaningfully continue —
// the machine has lost power.
var ErrCascade = errors.New("fvsst: power plant cascade failure")

// Driver couples the simulated machine with the scheduler the way the
// prototype daemon coupled with the kernel: each dispatch quantum the
// machine advances and the daemon collects counters; every n-th quantum
// (and on budget or idle events) it reschedules. The daemon's own cost is
// stolen from its host, CPU 0.
type Driver struct {
	M *machine.Machine
	S *Scheduler
	// Budgets is the CPU-power budget over time; nil keeps the
	// scheduler's initial budget forever.
	Budgets power.BudgetSource
	// Plant, when non-nil, is fed the true system power each quantum and
	// enforces the §2 cascade-failure rule; Step returns ErrCascade if the
	// system overloads the surviving supplies for longer than ΔT.
	Plant *power.Plant
	// Recorder, when non-nil, receives per-quantum traces of the machine
	// and of processor TraceCPU, which must lie in [0, NumCPUs). Both are
	// read when the first Step runs.
	Recorder *telemetry.Recorder
	TraceCPU int
	// Sink, when non-nil, receives one obs.EventQuantum per Step with the
	// machine's power draw and the active budget — the quantum-granularity
	// companion to the scheduler's per-decision events.
	Sink obs.Sink

	prevIdle []bool
	started  bool
	// series caches the Recorder's series handles so record() does not
	// repeat the by-name map lookups every quantum.
	series struct {
		systemPower, cpuPower, budget    *telemetry.Series
		ipc, freq, desiredMHz, actualMHz *telemetry.Series
	}
}

// NewDriver wires a machine and scheduler together.
func NewDriver(m *machine.Machine, s *Scheduler) *Driver {
	return &Driver{M: m, S: s}
}

// Step advances the coupled system by one dispatch quantum.
func (d *Driver) Step() error {
	if !d.started {
		if d.Recorder != nil {
			if d.TraceCPU < 0 || d.TraceCPU >= d.M.NumCPUs() {
				return fmt.Errorf("fvsst: TraceCPU %d outside [0,%d)", d.TraceCPU, d.M.NumCPUs())
			}
			// Series() creates on lookup, in this order: the CSV columns.
			d.series.systemPower = d.Recorder.Series("system-power-w")
			d.series.cpuPower = d.Recorder.Series("cpu-power-w")
			d.series.budget = d.Recorder.Series("budget-w")
			d.series.ipc = d.Recorder.Series("ipc")
			d.series.freq = d.Recorder.Series("freq-mhz")
			d.series.desiredMHz = d.Recorder.Series("desired-mhz")
			d.series.actualMHz = d.Recorder.Series("actual-mhz")
		}
		d.prevIdle = make([]bool, d.M.NumCPUs())
		for i := range d.prevIdle {
			d.prevIdle[i] = d.M.IsIdle(i)
		}
		d.started = true
		// Enforce the budget from the very first quantum: with no counter
		// history every processor is treated as CPU-bound (desired f_max)
		// and Step 2 clamps the assignment into the budget. Without this a
		// short job could run to completion before the first timer pass.
		if err := d.chargeSchedule(); err != nil {
			return err
		}
		if _, err := d.S.Schedule("startup"); err != nil {
			return err
		}
	}

	if err := d.M.StepQuantum(); err != nil {
		return err
	}

	// Trigger 1: a budget change takes effect the moment the simulation
	// clock reaches it — checked right after the step so any decision
	// made at this timestamp (timer or idle) sees the new limit.
	if d.Budgets != nil {
		want := d.Budgets.BudgetAt(d.M.Now())
		if want != d.S.Budget() {
			if err := d.S.SetBudget(want); err != nil {
				return err
			}
			if err := d.chargeSchedule(); err != nil {
				return err
			}
			if _, err := d.S.Schedule("budget-change"); err != nil {
				return err
			}
		}
	}

	if d.Plant != nil && d.Plant.Observe(d.M.Now(), d.M.SystemPower()) {
		return ErrCascade
	}

	// The daemon collects after every quantum.
	if err := d.chargeCollect(); err != nil {
		return err
	}
	due, err := d.S.Collect()
	if err != nil {
		return err
	}

	// Trigger 3: idle transitions reschedule immediately when the idle
	// signal is in use.
	idleChanged := false
	if d.S.Config().UseIdleSignal {
		for i := 0; i < d.M.NumCPUs(); i++ {
			cur := d.M.IsIdle(i)
			if cur != d.prevIdle[i] {
				idleChanged = true
			}
			d.prevIdle[i] = cur
		}
	}

	switch {
	case idleChanged:
		if err := d.chargeSchedule(); err != nil {
			return err
		}
		if _, err := d.S.Schedule("idle-transition"); err != nil {
			return err
		}
	case due:
		// Trigger 2: the periodic timer T = n·t.
		if err := d.chargeSchedule(); err != nil {
			return err
		}
		if _, err := d.S.Schedule("timer"); err != nil {
			return err
		}
	}

	d.record()
	if d.Sink != nil {
		d.Sink.Emit(obs.Event{
			Type:         obs.EventQuantum,
			At:           d.M.Now(),
			BudgetW:      d.S.Budget().W(),
			SystemPowerW: d.M.SystemPower().W(),
			CPUPowerW:    d.M.TotalCPUPower().W(),
		})
	}
	return nil
}

func (d *Driver) chargeCollect() error {
	oh := d.S.Config().Overhead
	if oh.CollectPerCPU <= 0 {
		return nil
	}
	return d.M.StealTime(0, oh.CollectPerCPU*float64(d.M.NumCPUs()))
}

func (d *Driver) chargeSchedule() error {
	oh := d.S.Config().Overhead
	if oh.SchedulePass <= 0 {
		return nil
	}
	return d.M.StealTime(0, oh.SchedulePass)
}

// record emits per-quantum telemetry for the traced CPU and the machine
// into the series handles the first Step resolved, if it had a Recorder.
func (d *Driver) record() {
	if d.series.systemPower == nil {
		return
	}
	now := d.M.Now()
	d.series.systemPower.MustAppend(now, d.M.SystemPower().W())
	d.series.cpuPower.MustAppend(now, d.M.TotalCPUPower().W())
	d.series.budget.MustAppend(now, d.S.Budget().W())
	q := d.M.LastQuantum(d.TraceCPU)
	ipc := 0.0
	if q.Cycles > 0 {
		ipc = float64(q.Instructions) / float64(q.Cycles)
	}
	d.series.ipc.MustAppend(now, ipc)
	d.series.freq.MustAppend(now, d.M.EffectiveFrequency(d.TraceCPU).MHz())
	dec, _ := d.S.LastDecision()
	a := dec.Assignments[d.TraceCPU]
	d.series.desiredMHz.MustAppend(now, a.Desired.MHz())
	d.series.actualMHz.MustAppend(now, a.Actual.MHz())
}

// Run advances the coupled system until simulation time t.
func (d *Driver) Run(until float64) error {
	for d.M.Now() < until {
		if err := d.Step(); err != nil {
			return err
		}
	}
	return nil
}

var _ Target = (*machine.Machine)(nil)
