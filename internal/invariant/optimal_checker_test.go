package invariant_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/optimal"
	"repro/internal/power"
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

// countedLoss wraps prob's loss surface with a read counter. The
// certificate reads the pass's n losses and each row's Upper+1 once; a
// DP solve reads the surface again, so more reads than that mean the
// DP ran.
func countedLoss(prob optimal.Problem) (optimal.Problem, *int, int) {
	reads, loss := 0, prob.Loss
	prob.Loss = func(cpu, fi int) float64 {
		reads++
		return loss(cpu, fi)
	}
	certOnly := len(prob.Upper)
	for _, u := range prob.Upper {
		certOnly += u + 1
	}
	return prob, &reads, certOnly
}

// TestStepTwoCertificate pins which passes the certificate closes on its
// own and what the DP then says about the rest, on hand-built whole-watt
// instances with dyadic-free losses:
//
//   - "rounding inside the margin": the greedy is optimal and the
//     relaxation integral (λ* = 0), but LP* sums from the last CPU and
//     lands one ulp above the CPU-order loss; only the margin lets the
//     certificate close.
//   - "at the gap's edge": greedy − LP* is exactly DefaultGap, so the
//     certificate, which must allow for rounding, leaves the pass to the
//     DP, and greedy − OPT = DefaultGap passes.
//   - "non-convex row": 1 W → 2 W buys 0.05 loss and 2 W → 10 W buys
//     0.95, so the middle point is off the row's hull. Under 9 W the hull
//     reaches LP* = 1/9 while the best whole point, the greedy's, is 0.95:
//     greedy − LP* > DefaultGap ≥ greedy − OPT = 0.
//   - "over budget below the bound": the same row with the pass at 10 W
//     against 9 W and loss 0 < LP* − Margin. Weak duality fails, the DP
//     runs, and the pass beating the optimum is a broken comparator.
func TestStepTwoCertificate(t *testing.T) {
	table := power.MustTable([]power.OperatingPoint{
		{F: units.MHz(100), V: units.Volts(1.0), P: units.Watts(1)},
		{F: units.MHz(200), V: units.Volts(1.1), P: units.Watts(2)},
		{F: units.MHz(300), V: units.Volts(1.2), P: units.Watts(10)},
	})
	cases := []struct {
		name   string
		budget units.Power
		actual []int
		rows   [][]float64
		wantDP bool
		want   string // a violation detail substring, "" for none
	}{
		{"rounding inside the margin", units.Watts(30), []int{2, 2, 2},
			[][]float64{{1, 0.5, 0.3}, {1, 0.5, 0.2}, {1, 0.5, 0.1}}, false, ""},
		{"at the gap's edge", units.Watts(30), []int{1},
			[][]float64{{1, invariant.DefaultGap, 0}}, true, ""},
		{"non-convex row", units.Watts(9), []int{1},
			[][]float64{{1, 0.95, 0}}, true, ""},
		{"over budget below the bound", units.Watts(9), []int{2},
			[][]float64{{1, 0.95, 0}}, true, "beats exact optimum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &invariant.Pass{Budget: tc.budget, Met: true, Table: table}
			upper := make([]int, len(tc.rows))
			for i, k := range tc.actual {
				upper[i] = table.Len() - 1
				p.Procs = append(p.Procs, invariant.Proc{CPU: i, DesiredIdx: upper[i], ActualIdx: k})
			}
			prob, reads, certOnly := countedLoss(optimal.Problem{
				Table:  table,
				Budget: tc.budget,
				Upper:  upper,
				Loss:   func(cpu, fi int) float64 { return tc.rows[cpu][fi] },
			})
			vs := invariant.StepTwoOptimal{}.CheckProblem(p, prob)
			if ranDP := *reads > certOnly; ranDP != tc.wantDP {
				t.Errorf("DP ran = %v (%d loss reads, %d without it), want %v", ranDP, *reads, certOnly, tc.wantDP)
			}
			if tc.want == "" && len(vs) != 0 || tc.want != "" && (len(vs) != 1 || !strings.Contains(vs[0].Detail, tc.want)) {
				t.Fatalf("violations = %v, want one containing %q", vs, tc.want)
			}
		})
	}
}

// TestStepTwoCertificateFleetScale: a Table-1 pass of 510 CPUs, past
// the ≈ 500 at which the unpruned DP would outgrow its frontier cap,
// with every CPU floored under a budget that fits far more. The
// certificate cannot close it, and it must be reported, never skipped.
func TestStepTwoCertificateFleetScale(t *testing.T) {
	cfg := testConfig()
	nf := cfg.Table.Len()
	fmax := cfg.Table.FrequencyAtIndex(nf - 1)
	procs := make([]invariant.Proc, 510)
	for i := range procs {
		procs[i] = invariant.Proc{CPU: i, Obs: obs(fmax, uint64(100*(i%50))), DesiredIdx: nf - 1, ActualIdx: 0, Voltage: cfg.Table.VoltageAtIndex(0)}
	}
	budget := cfg.Table.PowerAtIndex(nf-1) * 510 * 6 / 10
	p := mustPass(t, cfg, budget, procs, nil, cfg.Table.PowerAtIndex(0)*510, true)
	if vs := (invariant.StepTwoOptimal{}).Check(p); len(vs) != 1 || vs[0].Checker != "step2-optimal" {
		t.Fatalf("violations = %v, want the floored fleet reported once", vs)
	}
}

// TestStepTwoCertificatePastTheCap: where the certificate cannot close a
// pass and the DP returns optimal.ErrTooLarge, the pass is a violation.
// Two CPUs over a 401-point Sidon table (P(k) = 2·401·k + (k² mod 401)
// + 1 W, every pairwise sum distinct) with losses exactly linear in
// power put every one of the 78 920 pair sums under 90 % of the top
// draw on the frontier, none prunable, past the 65 536-state cap.
func TestStepTwoCertificatePastTheCap(t *testing.T) {
	const q = 401
	pts := make([]power.OperatingPoint, q)
	for k := range pts {
		pts[k] = power.OperatingPoint{F: units.MHz(float64(100 * (k + 1))), V: units.Volts(1), P: units.Watts(float64(2*q*k + k*k%q + 1))}
	}
	table := power.MustTable(pts)
	top := table.PowerAtIndex(q - 1)
	budget := units.Watts(float64(int(top.W() * 2 * 9 / 10)))
	p := &invariant.Pass{Budget: budget, Met: true, Table: table, Procs: []invariant.Proc{
		{CPU: 0, DesiredIdx: q - 1}, {CPU: 1, DesiredIdx: q - 1},
	}}
	prob := optimal.Problem{
		Table:  table,
		Budget: budget,
		Upper:  []int{q - 1, q - 1},
		Loss:   func(_, fi int) float64 { return math.Ldexp((top - table.PowerAtIndex(fi)).W(), -20) },
	}
	if _, err := optimal.Solve(prob); !errors.Is(err, optimal.ErrTooLarge) {
		t.Fatalf("Solve: %v, want ErrTooLarge", err)
	}
	vs := invariant.StepTwoOptimal{}.CheckProblem(p, prob)
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "past its frontier cap") {
		t.Fatalf("violations = %v, want the uncertified pass past the cap reported", vs)
	}
}
