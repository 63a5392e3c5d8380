package machine

import (
	"testing"

	"repro/internal/workload"
)

func reqJob(instr uint64) workload.Program {
	return workload.Program{
		Name:   "req",
		Phases: []workload.Phase{{Name: "serve", Alpha: 1.2, Instructions: instr}},
	}
}

func TestSubmitDeliversArrivalsOnTime(t *testing.T) {
	m := newQuiet(t)
	sched := workload.Schedule{
		{At: 0.05, CPU: 0, Program: reqJob(1e8)}, // ≈80 ms of work each
		{At: 0.15, CPU: 0, Program: reqJob(1e8)},
		{At: 0.10, CPU: 1, Program: reqJob(1e8)},
	}
	if err := m.Submit(sched); err != nil {
		t.Fatal(err)
	}
	if m.PendingArrivals() != 3 {
		t.Fatalf("pending = %d", m.PendingArrivals())
	}
	if m.AllJobsDone() {
		t.Error("machine with pending arrivals reported done")
	}
	// Before the first arrival: CPU 0 idle.
	runUntil(m, 0.04)
	if !m.IsIdle(0) {
		t.Error("cpu0 busy before its arrival")
	}
	runUntil(m, 0.06)
	if m.IsIdle(0) {
		t.Error("cpu0 idle after its arrival")
	}
	// Run everything out.
	if done, err := m.RunUntilAllDone(2.0); err != nil || !done {
		t.Fatalf("jobs did not finish: %v", err)
	}
	comps := m.Completions()
	if len(comps) != 3 {
		t.Fatalf("completions = %d", len(comps))
	}
	// Causality per CPU: by any time t, completions cannot outnumber
	// arrivals.
	for _, c := range comps {
		arrived, completed := 0, 0
		for _, a := range sched {
			if a.CPU == c.CPU && a.At <= c.At {
				arrived++
			}
		}
		for _, c2 := range comps {
			if c2.CPU == c.CPU && c2.At <= c.At {
				completed++
			}
		}
		if completed > arrived {
			t.Errorf("cpu %d: %d completions by %v but only %d arrivals", c.CPU, completed, c.At, arrived)
		}
	}
}

func TestSubmitIntoRunningMix(t *testing.T) {
	m := newQuiet(t)
	mix, err := workload.NewMix(reqJob(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMix(0, mix); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(workload.Schedule{{At: 0.02, CPU: 0, Program: reqJob(1e6)}}); err != nil {
		t.Fatal(err)
	}
	runUntil(m, 0.5)
	if len(mix.Jobs()) != 2 {
		t.Errorf("mix jobs = %d, want 2 after arrival", len(mix.Jobs()))
	}
	// The short arrival completes while the long original keeps running.
	done := 0
	for _, c := range m.Completions() {
		if c.Program == "req" {
			done++
		}
	}
	if done != 1 {
		t.Errorf("completions = %d, want the short job done", done)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newQuiet(t)
	if err := m.Submit(workload.Schedule{{At: 0.1, CPU: 99, Program: reqJob(1)}}); err == nil {
		t.Error("out-of-range CPU accepted")
	}
	if err := m.Submit(workload.Schedule{{At: -1, CPU: 0, Program: reqJob(1)}}); err == nil {
		t.Error("negative arrival time accepted")
	}
	if m.PendingArrivals() != 0 {
		t.Error("rejected arrivals were queued")
	}
}

func TestPastArrivalAdmittedImmediately(t *testing.T) {
	m := newQuiet(t)
	runUntil(m, 0.2)
	if err := m.Submit(workload.Schedule{{At: 0.05, CPU: 2, Program: reqJob(1e6)}}); err != nil {
		t.Fatal(err)
	}
	m.Step()
	if m.IsIdle(2) && m.PendingArrivals() > 0 {
		t.Error("past-dated arrival not admitted at next step")
	}
}
