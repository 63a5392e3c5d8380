package fvsst

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestSchedulerOverMonteCarloMachine drives the full fvsst loop against
// the Monte-Carlo execution model: the scheduler must still find the
// memory-bound workload's saturation band even when every counter window
// carries miss-discreteness noise.
func TestSchedulerOverMonteCarloMachine(t *testing.T) {
	cfg := machine.P630Config()
	cfg.MonteCarloExec = true
	cfg.LatencyJitterSigma = 0
	cfg.Contention = memhier.Contention{}
	m, err := machine.New(cfg, nil, nil, nil, []workload.Program{{Name: "mem", Phases: []workload.Phase{{
		Name: "m", Alpha: 1.1,
		Rates:        memhier.AccessRates{L2PerInstr: 0.030, L3PerInstr: 0.006, MemPerInstr: 0.024},
		Instructions: 1e12,
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(noOverheadConfig(), m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	rec := recordDecisions(s)
	if err := drv.Run(2.0); err != nil {
		t.Fatal(err)
	}
	d, _ := s.LastDecision()
	got := d.Assignments[3].Actual
	if got < units.MHz(600) || got > units.MHz(700) {
		t.Errorf("MC-driven scheduler settled at %v, want 600-700MHz band", got)
	}
	// Prediction error under MC execution is non-zero but bounded.
	var devs, n float64
	decs := rec.decs
	for i := 2; i < len(decs); i++ {
		a := decs[i].Assignments[3]
		p := decs[i-1].Assignments[3]
		if p.PredictedIPC == 0 || a.ObservedIPC == 0 {
			continue
		}
		dev := p.PredictedIPC - a.ObservedIPC
		if dev < 0 {
			dev = -dev
		}
		devs += dev
		n++
	}
	if n == 0 {
		t.Fatal("no comparable windows")
	}
	if mean := devs / n; mean > 0.05 {
		t.Errorf("mean prediction deviation %.4f under MC execution", mean)
	}
}
