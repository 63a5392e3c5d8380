package machine

import (
	"testing"

	"repro/internal/memhier"
	"repro/internal/workload"
)

// hotPathMachine is a p630 with an endless workload on every CPU so no
// quantum completes a job (completions append to the machine's log).
// Noise stays on: the RNG draw is part of the steady-state step.
func hotPathMachine(tb testing.TB) *Machine {
	tb.Helper()
	cfg := P630Config()
	prog := workload.Program{Name: "endless", Phases: []workload.Phase{{
		Name: "p", Alpha: 1.2,
		Rates:        memhier.AccessRates{L2PerInstr: 0.02, L3PerInstr: 0.004, MemPerInstr: 0.01},
		Instructions: 1e15,
	}}}
	progs := make([][]workload.Program, cfg.NumCPUs)
	for cpu := range progs {
		progs[cpu] = []workload.Program{prog}
	}
	m, err := New(cfg, progs...)
	if err != nil {
		tb.Fatal(err)
	}
	runUntil(m, 20) // reach steady state
	return m
}

// TestStepZeroAlloc pins the other half of the hot-path guarantee: a
// steady-state dispatch quantum allocates nothing.
func TestStepZeroAlloc(t *testing.T) {
	m := hotPathMachine(t)
	allocs := testing.AllocsPerRun(200, func() { m.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %v per quantum, want 0", allocs)
	}
}

// BenchmarkMachineStep measures one dispatch quantum across the four CPUs.
func BenchmarkMachineStep(b *testing.B) {
	m := hotPathMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}
