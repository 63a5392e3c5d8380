package invariant_test

import (
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/optimal"
	"repro/internal/units"
)

func TestStepTwoOptimal(t *testing.T) {
	cfg := testConfig()
	p := cleanPass(t, cfg)
	if vs := (invariant.StepTwoOptimal{}).Check(p); len(vs) != 0 {
		t.Fatalf("clean pass flagged: %v", vs)
	}

	// met=false while the floor assignment fits: exact feasibility broken.
	infeasible := *p
	infeasible.Met = false
	vs := invariant.StepTwoOptimal{}.Check(&infeasible)
	if len(vs) == 0 || !strings.Contains(vs[0].Detail, "feasible") {
		t.Fatalf("feasibility mismatch not flagged: %v", vs)
	}

	// Every CPU floored under a generous budget: the exact optimum keeps
	// them at their desired points with ~zero loss, so the gap bound must
	// fire.
	nf := cfg.Table.Len()
	fmax := cfg.Table.FrequencyAtIndex(nf - 1)
	procs := []invariant.Proc{
		{CPU: 0, Obs: obs(fmax, 500), DesiredIdx: nf - 1, ActualIdx: 0, Voltage: cfg.Table.VoltageAtIndex(0)},
		{CPU: 1, Obs: obs(fmax, 500), DesiredIdx: nf - 1, ActualIdx: 0, Voltage: cfg.Table.VoltageAtIndex(0)},
	}
	floored := mustPass(t, cfg, units.Watts(1e6), procs, nil, cfg.Table.PowerAtIndex(0)*2, true)
	vs = invariant.StepTwoOptimal{}.Check(floored)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Detail, "exceeds exact optimum") {
			found = true
		}
	}
	if !found {
		t.Fatalf("needless flooring within gap: %v", vs)
	}

	// Unlike the brute-force checker, the exact comparator has no
	// small-grid restriction: the same floored pass at MaxStates=1 scale
	// is still checked (the DP frontier over the paper table stays tiny).
	if vs := (invariant.StepTwoBruteForce{MaxStates: 1}).Check(floored); vs != nil {
		t.Fatalf("brute force should skip at MaxStates=1: %v", vs)
	}
	if vs := (invariant.StepTwoOptimal{}).Check(floored); len(vs) == 0 {
		t.Fatal("exact comparator skipped a pass it must cover")
	}
}

func TestPassOptGap(t *testing.T) {
	cfg := testConfig()
	p := cleanPass(t, cfg)
	greedy, opt, energy, ok, err := p.OptGap()
	if !ok || err != nil {
		t.Fatalf("clean pass must be solvable: ok=%v err=%v", ok, err)
	}
	if greedy < opt {
		t.Fatalf("greedy %g below exact optimum %g", greedy, opt)
	}
	if greedy-opt > invariant.DefaultGap {
		t.Fatalf("clean pass gap %g exceeds DefaultGap", greedy-opt)
	}
	if energy.Method != "energy" || len(energy.Idx) != len(p.Procs) {
		t.Fatalf("bad energy baseline: %+v", energy)
	}

	// Infeasible and empty passes are unsolved, not gap zero.
	infeasible := *p
	infeasible.Met = false
	if _, _, _, ok, err := infeasible.OptGap(); ok || err != nil {
		t.Fatal("met=false pass reported as solved")
	}
	empty := mustPass(t, cfg, units.Watts(1e6), nil, nil, 0, true)
	if _, _, _, ok, err := empty.OptGap(); ok || err != nil {
		t.Fatal("empty pass reported as solved")
	}
}

// TestStepTwoOptimalSolverFailure pins the difference between "past
// the frontier cap" (skip) and "the comparator failed" (report): a loss
// surface that answers differently on every call makes optimal.Solve's
// exact re-check trip, and that must surface as a comparator-broken
// violation and an OptGap error, never as a silently skipped pass.
func TestStepTwoOptimalSolverFailure(t *testing.T) {
	cfg := testConfig()
	p := cleanPass(t, cfg)
	flaky := func() optimal.Problem {
		prob, calls := p.Problem(), 0
		loss := prob.Loss
		prob.Loss = func(cpu, fi int) float64 {
			calls++
			return loss(cpu, fi) + 1e-3*float64(calls)
		}
		return prob
	}
	cases := []struct {
		name       string
		prob       optimal.Problem
		wantBroken bool
	}{
		{"deterministic", p.Problem(), false},
		{"flaky loss", flaky(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := invariant.StepTwoOptimal{}.CheckProblem(p, tc.prob)
			broken := len(vs) == 1 && vs[0].Checker == "step2-optimal" &&
				strings.Contains(vs[0].Detail, "re-check failed") && strings.Contains(vs[0].Detail, "comparator broken")
			if broken != tc.wantBroken || (!tc.wantBroken && len(vs) != 0) {
				t.Fatalf("violations = %v, want comparator-broken=%v", vs, tc.wantBroken)
			}
			_, _, _, ok, err := p.OptGapProblem(tc.prob)
			if ok == tc.wantBroken || (err != nil) != tc.wantBroken {
				t.Fatalf("OptGap ok=%v err=%v, want broken=%v", ok, err, tc.wantBroken)
			}
		})
	}
}
