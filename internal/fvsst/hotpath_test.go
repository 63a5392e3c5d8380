package fvsst

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/units"
	"repro/internal/workload"
)

// hotPathScheduler builds a quiet p630 with long-running mixed workloads on
// every CPU and a scheduler warmed past its first few windows, the
// steady-state the allocation guarantees cover.
func hotPathScheduler(tb testing.TB) (*machine.Machine, *Scheduler) {
	tb.Helper()
	m := quietMachine(tb)
	// Big instruction budgets so no job completes during the measurement
	// (completions append to the machine's completion log).
	progs := []workload.Program{
		cpuProgram("hot-cpu0", 1e15),
		memProgram("hot-mem1", 1e15),
		cpuProgram("hot-cpu2", 1e15),
		memProgram("hot-mem3", 1e15),
	}
	for cpu, p := range progs {
		mix, err := workload.NewMix(p)
		if err != nil {
			tb.Fatal(err)
		}
		if err := m.SetMix(cpu, mix); err != nil {
			tb.Fatal(err)
		}
	}
	cfg := noOverheadConfig()
	// A budget below 4×140 W keeps Step 2 busy so the measurement covers
	// the demotion loop too.
	s, err := New(cfg, m, units.Watts(350))
	if err != nil {
		tb.Fatal(err)
	}
	// Warm up: fill the sampler windows and let every reusable buffer
	// reach its steady-state capacity.
	for i := 0; i < 5*cfg.SchedulePeriods; i++ {
		m.Step()
		due, err := s.Collect()
		if err != nil {
			tb.Fatal(err)
		}
		if due {
			if _, err := s.Schedule("timer"); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return m, s
}

// TestScheduleZeroAlloc pins the headline property of the hot-path
// refactor: a steady-state scheduling pass — collect, Figure 3 pass,
// actuation — performs zero heap allocations.
func TestScheduleZeroAlloc(t *testing.T) {
	m, s := hotPathScheduler(t)
	allocs := testing.AllocsPerRun(200, func() {
		m.Step()
		if _, err := s.Collect(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Schedule("timer"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step+Collect+Schedule allocates %v per pass, want 0", allocs)
	}
}

// BenchmarkSchedulePass measures one full scheduling pass (without the
// machine step) in steady state; the interesting numbers are ns/op and
// allocs/op (expected 0).
func BenchmarkSchedulePass(b *testing.B) {
	m, s := hotPathScheduler(b)
	_ = m
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule("timer"); err != nil {
			b.Fatal(err)
		}
	}
}
