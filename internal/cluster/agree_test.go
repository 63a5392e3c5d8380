package cluster_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/perfmodel"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestSchedulerAndCoreAgree holds the two owners of the Figure-3 pass to
// one answer. A fvsst.Scheduler drives a p630 (two CPU-bound jobs, one job
// that turns from memory-bound to CPU-bound, one idle processor); a second
// sampler reads the same counters beside the scheduler's (reads are pure)
// and feeds a cluster.Core the windows the scheduler saw. At every due
// pass the Decision and the PassResult must match bit for bit — so the two
// feed the pass the same edge rules: idle → minimum, no usable window →
// f_max. The one asymmetry is deliberate: cluster.Assignment.Idle carries
// the raw signal, fvsst.Assignment.Idle the signal gated by UseIdleSignal.
func TestSchedulerAndCoreAgree(t *testing.T) {
	for _, ideal := range []bool{false, true} {
		for _, idleSignal := range []bool{false, true} {
			for seed := int64(1); seed <= 5; seed++ {
				for _, budgetW := range []float64{560, 350, 200, 30} {
					name := fmt.Sprintf("ideal=%v/idle=%v/seed=%d/%gW", ideal, idleSignal, seed, budgetW)
					t.Run(name, func(t *testing.T) {
						agreeRun(t, ideal, idleSignal, seed, units.Watts(budgetW))
					})
				}
			}
		}
	}
}

func agreeRun(t *testing.T, ideal, idleSignal bool, seed int64, budget units.Power) {
	mcfg := machine.P630Config()
	mcfg.Seed = seed
	cpuBound := workload.Phase{Name: "cpu", Alpha: 1.4, Instructions: 1e13}
	memBound := workload.Phase{
		Name: "mem", Alpha: 1.1, Instructions: 4e8,
		Rates: memhier.AccessRates{L2PerInstr: 0.030, L3PerInstr: 0.006, MemPerInstr: 0.0186},
	}
	m, err := machine.New(mcfg,
		[]workload.Program{{Name: "cpu0", Phases: []workload.Phase{cpuBound}}},
		[]workload.Program{{Name: "cpu1", Phases: []workload.Phase{cpuBound}}},
		[]workload.Program{{Name: "turn2", Phases: []workload.Phase{memBound, cpuBound}}})
	if err != nil {
		t.Fatal(err)
	}

	cfg := fvsst.DefaultConfig()
	cfg.Overhead = fvsst.Overhead{}
	cfg.UseIdealFrequency = ideal
	cfg.UseIdleSignal = idleSignal
	s, err := fvsst.New(cfg, m, budget)
	if err != nil {
		t.Fatal(err)
	}
	core, err := cluster.NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	side, err := counters.NewSampler(m, 4*cfg.SchedulePeriods)
	if err != nil {
		t.Fatal(err)
	}

	n := m.NumCPUs()
	inputs := make([]cluster.ProcInput, n)
	observations := make([]perfmodel.Observation, n)
	passes := 0
	for q := 0; q < 40*cfg.SchedulePeriods; q++ {
		if err := m.StepQuantum(); err != nil {
			t.Fatal(err)
		}
		if err := side.Collect(); err != nil {
			t.Fatal(err)
		}
		due, err := s.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if !due {
			continue
		}
		for cpu := range inputs {
			inputs[cpu] = cluster.ProcInput{
				Proc: cluster.ProcRef{CPU: cpu},
				Node: "n0",
				Idle: m.IsIdle(cpu),
			}
			if o, ok := perfmodel.ObservationFrom(side.WindowAggregate(cpu, cfg.SchedulePeriods)); ok {
				observations[cpu] = o
				inputs[cpu].Obs = &observations[cpu]
			}
		}
		res, err := core.Schedule(inputs, budget)
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.Schedule("timer")
		if err != nil {
			t.Fatal(err)
		}
		passes++

		if d.BudgetMet != res.BudgetMet {
			t.Fatalf("pass %d: met %v vs %v", passes, d.BudgetMet, res.BudgetMet)
		}
		if math.Float64bits(d.TablePower.W()) != math.Float64bits(res.TablePower.W()) {
			t.Fatalf("pass %d: table power %v vs %v", passes, d.TablePower, res.TablePower)
		}
		if !reflect.DeepEqual(d.Demotions, res.Demotions) {
			t.Fatalf("pass %d: demotions\n scheduler %v\n core      %v", passes, d.Demotions, res.Demotions)
		}
		for cpu, a := range d.Assignments {
			b := res.Assignments[cpu]
			if a.Desired != b.Desired || a.Actual != b.Actual || a.Voltage != b.Voltage ||
				math.Float64bits(a.PredictedLoss) != math.Float64bits(b.PredictedLoss) ||
				a.Idle != (idleSignal && b.Idle) {
				t.Fatalf("pass %d cpu %d:\n scheduler %+v\n core      %+v", passes, cpu, a, b)
			}
		}
	}
	if passes != 40 {
		t.Fatalf("%d passes, want 40", passes)
	}
}
