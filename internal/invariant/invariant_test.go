package invariant_test

import (
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/farm"
	"repro/internal/fvsst"
	"repro/internal/invariant"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

func testConfig() fvsst.Config {
	cfg := fvsst.DefaultConfig()
	cfg.UseIdleSignal = true
	cfg.Overhead = fvsst.Overhead{}
	return cfg
}

// obs builds a valid counter observation at the given frequency; memRefs
// tunes how memory-bound the workload looks (0 is legal: still some L2
// traffic, so the decomposition stays well-defined).
func obs(freq units.Frequency, memRefs uint64) *perfmodel.Observation {
	return &perfmodel.Observation{
		Delta: counters.Delta{
			Window:       0.02,
			Instructions: 2_000_000,
			Cycles:       3_000_000,
			L2Refs:       40_000,
			L3Refs:       8_000,
			MemRefs:      memRefs,
		},
		Freq: freq,
	}
}

// mustPass builds a Pass or fails the test.
func mustPass(t *testing.T, cfg fvsst.Config, budget units.Power, procs []invariant.Proc, dem []fvsst.Demotion, charged units.Power, met bool) *invariant.Pass {
	t.Helper()
	p, err := invariant.NewPass(cfg, 0.5, budget, procs, dem, charged, met)
	if err != nil {
		t.Fatalf("NewPass: %v", err)
	}
	return p
}

// cleanPass builds a pass that satisfies every checker: a generous budget,
// Step-1-consistent desired indices (computed from the pass's own grid),
// no demotions, correct voltages and charge.
func cleanPass(t *testing.T, cfg fvsst.Config) *invariant.Pass {
	t.Helper()
	nf := cfg.Table.Len()
	fmax := cfg.Table.FrequencyAtIndex(nf - 1)
	procs := []invariant.Proc{
		{Node: "n0", CPU: 0, Obs: obs(fmax, 500), DesiredIdx: nf - 1, ActualIdx: nf - 1},
		{CPU: 1, Obs: obs(fmax, 60_000), DesiredIdx: nf - 1, ActualIdx: nf - 1},
		{CPU: 2, Idle: true, DesiredIdx: nf - 1, ActualIdx: nf - 1},
		{CPU: 3, DesiredIdx: nf - 1, ActualIdx: nf - 1}, // no counters
	}
	probe := mustPass(t, cfg, units.Watts(1e6), procs, nil, 0, true)
	g := probe.Grid()
	for i := range procs {
		want := nf - 1
		switch {
		case procs[i].Idle:
			want = 0
		case !g.Valid(i):
		default:
			for fi := 0; fi < nf; fi++ {
				if g.Loss(i, fi) < cfg.Epsilon {
					want = fi
					break
				}
			}
		}
		procs[i].DesiredIdx, procs[i].ActualIdx = want, want
		procs[i].Voltage = cfg.Table.VoltageAtIndex(want)
	}
	var charged units.Power
	for _, pr := range procs {
		charged += cfg.Table.PowerAtIndex(pr.ActualIdx)
	}
	return mustPass(t, cfg, units.Watts(1e6), procs, nil, charged, true)
}

func names(vs []invariant.Violation) map[string]int {
	m := map[string]int{}
	for _, v := range vs {
		m[v.Checker]++
	}
	return m
}

func TestDefaultSuiteCleanPass(t *testing.T) {
	s := invariant.DefaultSuite()
	s.Check(cleanPass(t, testConfig()))
	if vs := s.Violations(); len(vs) != 0 {
		t.Fatalf("clean pass violates: %v", vs)
	}
}

func TestNewPassRejections(t *testing.T) {
	cfg := testConfig()
	bad := cfg
	bad.Epsilon = 0
	if _, err := invariant.NewPass(bad, 0, 0, nil, nil, 0, true); err == nil {
		t.Error("invalid config accepted")
	}
	ideal := cfg
	ideal.UseIdealFrequency = true
	if _, err := invariant.NewPass(ideal, 0, 0, nil, nil, 0, true); err == nil ||
		!strings.Contains(err.Error(), "variants") {
		t.Errorf("Step-1 variant config accepted (err=%v)", err)
	}
	nf := cfg.Table.Len()
	if _, err := invariant.NewPass(cfg, 0, 0, []invariant.Proc{{DesiredIdx: nf}}, nil, 0, true); err == nil {
		t.Error("out-of-range desired index accepted")
	}
	if _, err := invariant.NewPass(cfg, 0, 0, []invariant.Proc{{ActualIdx: -1}}, nil, 0, true); err == nil {
		t.Error("out-of-range actual index accepted")
	}
	badObs := &perfmodel.Observation{Delta: counters.Delta{Window: 0.02}, Freq: cfg.Table.FrequencyAtIndex(0)}
	if _, err := invariant.NewPass(cfg, 0, 0, []invariant.Proc{{Obs: badObs}}, nil, 0, true); err == nil {
		t.Error("undecomposable observation accepted")
	}
}

func TestGridSanityCatchesCorruptRow(t *testing.T) {
	p := cleanPass(t, testConfig())
	// Poison CPU 0's row with an impossible decomposition: negative core
	// CPI makes IPC negative at every frequency.
	p.Grid().Fill(0, perfmodel.Decomposition{InvAlpha: -1, StallSecPerInstr: 0})
	vs := invariant.GridSanity{}.Check(p)
	if len(vs) == 0 {
		t.Fatal("corrupt grid row not flagged")
	}
	if names(vs)["grid-sanity"] != len(vs) {
		t.Fatalf("unexpected checker names: %v", vs)
	}
}

func TestEpsilonSaturation(t *testing.T) {
	p := cleanPass(t, testConfig())
	if vs := (invariant.EpsilonSaturation{}).Check(p); len(vs) != 0 {
		t.Fatalf("clean pass flagged: %v", vs)
	}
	p.Procs[2].DesiredIdx = 1 // idle CPU must sit at the floor
	vs := invariant.EpsilonSaturation{}.Check(p)
	if len(vs) != 1 || vs[0].Checker != "step1-epsilon" {
		t.Fatalf("misplaced idle CPU not flagged exactly once: %v", vs)
	}
	p.Procs[2].DesiredIdx = 0
	p.Procs[3].DesiredIdx = 0 // counterless CPU must pin at f_max
	if vs := (invariant.EpsilonSaturation{}).Check(p); len(vs) != 1 {
		t.Fatalf("counterless CPU below f_max not flagged: %v", vs)
	}
}

func TestStepTwoReplayViolations(t *testing.T) {
	cfg := testConfig()
	p := cleanPass(t, cfg)

	wrongMet := *p
	wrongMet.Met = false
	vs := invariant.StepTwoReplay{}.Check(&wrongMet)
	if names(vs)["step2-least-loss"] == 0 {
		t.Fatalf("met mismatch not flagged: %v", vs)
	}

	// Phantom demotion: count mismatch plus per-step mismatch.
	phantom := *p
	phantom.Demotions = []fvsst.Demotion{{CPU: 0, From: cfg.Table.FrequencyAtIndex(1), To: cfg.Table.FrequencyAtIndex(0), PredictedLoss: 0.5}}
	if vs := (invariant.StepTwoReplay{}).Check(&phantom); len(vs) == 0 {
		t.Fatal("phantom demotion not flagged")
	}

	// Decreasing logged losses break the monotone-demotion property.
	mono := *p
	mono.Demotions = []fvsst.Demotion{
		{CPU: 0, From: cfg.Table.FrequencyAtIndex(1), To: cfg.Table.FrequencyAtIndex(0), PredictedLoss: 0.5},
		{CPU: 1, From: cfg.Table.FrequencyAtIndex(1), To: cfg.Table.FrequencyAtIndex(0), PredictedLoss: 0.1},
	}
	found := false
	for _, v := range (invariant.StepTwoReplay{}).Check(&mono) {
		if strings.Contains(v.Detail, "not monotone") {
			found = true
		}
	}
	if !found {
		t.Fatal("non-monotone demotion losses not flagged")
	}

	// A tight budget forces the replay to demote; a pass that claims no
	// demotions happened must be caught.
	tight := *p
	tight.Budget = cfg.Table.PowerAtIndex(0) * units.Power(len(p.Procs))
	vs = invariant.StepTwoReplay{}.Check(&tight)
	if len(vs) == 0 {
		t.Fatal("missing demotions under tight budget not flagged")
	}
}

func TestVoltageMatch(t *testing.T) {
	p := cleanPass(t, testConfig())
	if vs := (invariant.VoltageMatch{}).Check(p); len(vs) != 0 {
		t.Fatalf("clean pass flagged: %v", vs)
	}
	p.Procs[0].Voltage += units.Volts(0.1)
	if vs := (invariant.VoltageMatch{}).Check(p); len(vs) != 1 || vs[0].Checker != "step3-voltage" {
		t.Fatalf("wrong voltage not flagged exactly once: %v", vs)
	}
}

func TestBudgetConservation(t *testing.T) {
	cfg := testConfig()
	p := cleanPass(t, cfg)

	promoted := *p
	promoted.Procs = append([]invariant.Proc(nil), p.Procs...)
	promoted.Procs[2].ActualIdx = promoted.Procs[2].DesiredIdx + 1
	vs := invariant.BudgetConservation{}.Check(&promoted)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Detail, "only demote") {
			found = true
		}
	}
	if !found {
		t.Fatalf("promotion not flagged: %v", vs)
	}

	misCharged := *p
	misCharged.Charged += units.Watts(1)
	if vs := (invariant.BudgetConservation{}).Check(&misCharged); len(vs) == 0 {
		t.Fatal("wrong charged sum not flagged")
	}

	overdraw := *p
	overdraw.Budget = overdraw.Charged - units.Watts(1)
	if vs := (invariant.BudgetConservation{}).Check(&overdraw); len(vs) == 0 {
		t.Fatal("met=true over budget not flagged")
	}

	notFloored := *p
	notFloored.Met = false
	vs = invariant.BudgetConservation{}.Check(&notFloored)
	found = false
	for _, v := range vs {
		if strings.Contains(v.Detail, "must floor") {
			found = true
		}
	}
	if !found {
		t.Fatalf("unfloored infeasible pass not flagged: %v", vs)
	}
}

func TestSuiteCapAndReport(t *testing.T) {
	s := invariant.NewSuite()
	var many []invariant.Violation
	for i := 0; i < invariant.DefaultMaxViolations+36; i++ {
		many = append(many, invariant.Violation{Checker: "x", At: float64(i)})
	}
	s.Report(many...)
	s.Report(invariant.Violation{Checker: "y"}) // past the cap: not stored
	if got := len(s.Violations()); got != invariant.DefaultMaxViolations {
		t.Fatalf("retained %d, want cap %d", got, invariant.DefaultMaxViolations)
	}
	if s.Violations()[0].At != 0 {
		t.Fatal("cap did not keep the earliest violations")
	}
	if got := s.Violations()[0].String(); !strings.Contains(got, "[x]") {
		t.Fatalf("String() = %q", got)
	}
}

func TestSuiteAdd(t *testing.T) {
	s := invariant.NewSuite(invariant.VoltageMatch{})
	p := cleanPass(t, testConfig())
	p.Procs[0].Voltage += units.Volts(0.1)
	s.Check(p)
	if n := len(s.Violations()); n != 1 {
		t.Fatalf("added checker did not run: %d violations", n)
	}
}

func TestCheckLedger(t *testing.T) {
	ok := invariant.Ledger{At: 1, Budget: 100, Live: 40, Reserved: 20, Charged: 60, Met: true}
	if vs := invariant.CheckLedger(ok); len(vs) != 0 {
		t.Fatalf("good ledger flagged: %v", vs)
	}
	split := ok
	split.Charged = 70
	vs := invariant.CheckLedger(split)
	// Charged no longer decomposes, and met=true no longer matches
	// charged ≤ budget being... still true — only the decomposition fires.
	if names(vs)["cluster-ledger"] != 1 {
		t.Fatalf("bad decomposition: %v", vs)
	}
	lie := ok
	lie.Met = false
	lie.AllLiveAtFloor = true
	if vs := invariant.CheckLedger(lie); len(vs) != 1 {
		t.Fatalf("met verdict mismatch: %v", vs)
	}
	over := invariant.Ledger{At: 1, Budget: 50, Live: 40, Reserved: 20, Charged: 60, Met: false}
	if vs := invariant.CheckLedger(over); len(vs) != 1 || !strings.Contains(vs[0].Detail, "floor") {
		t.Fatalf("missed budget above floor: %v", vs)
	}
}

func TestCheckAllocation(t *testing.T) {
	members := []farm.Member{{Name: "a", Floor: 10}, {Name: "b", Floor: 10}}
	good := farm.Allocation{
		At: 2, Budget: 100, Allocatable: 85, Charged: 80, Met: true,
		Leases: []farm.Lease{
			{Member: "a", Budget: 40, Granted: 2, Expires: 2.3},
			{Member: "b", Budget: 40, Granted: 2, Expires: 2.3},
		},
	}
	if vs := invariant.CheckAllocation(members, good); len(vs) != 0 {
		t.Fatalf("good allocation flagged: %v", vs)
	}
	bad := good
	bad.Allocatable = 120
	bad.Charged = 110
	bad.Leases = []farm.Lease{
		{Member: "ghost", Budget: 40, Granted: 2, Expires: 2.3},
		{Member: "a", Budget: 1, Granted: 2.5, Expires: 2.0},
	}
	vs := invariant.CheckAllocation(members, bad)
	want := []string{"safety discount", "exceeds budget", "unknown member", "below its floor", "granted at", "expires at"}
	for _, w := range want {
		found := false
		for _, v := range vs {
			if strings.Contains(v.Detail, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("no violation mentioning %q in %v", w, vs)
		}
	}
}

func TestCheckFarmChargeAndHolder(t *testing.T) {
	if vs := invariant.CheckFarmCharge(1, 100, 90); len(vs) != 0 {
		t.Fatalf("conserving charge flagged: %v", vs)
	}
	if vs := invariant.CheckFarmCharge(1, 100, 101); len(vs) != 1 || vs[0].Checker != "farm-conservation" {
		t.Fatalf("overdraw not flagged: %v", vs)
	}

	h, err := farm.NewHolder("c0", 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vs := invariant.CheckHolder(0, h); len(vs) != 0 {
		t.Fatalf("fresh holder flagged: %v", vs)
	}
	h.Grant(farm.Lease{Member: "c0", Budget: 50, Granted: 1, Expires: 1.3})
	if vs := invariant.CheckHolder(1.1, h); len(vs) != 0 {
		t.Fatalf("live lease flagged: %v", vs)
	}
	if vs := invariant.CheckHolder(2, h); len(vs) != 0 {
		t.Fatalf("expired lease at floor flagged: %v", vs)
	}
	// A lease below the floor is an allocator bug the holder check catches.
	h.Grant(farm.Lease{Member: "c0", Budget: 5, Granted: 3, Expires: 3.3})
	if vs := invariant.CheckHolder(3.1, h); len(vs) != 1 || !strings.Contains(vs[0].Detail, "below floor") {
		t.Fatalf("below-floor lease not flagged: %v", vs)
	}
}

// TestCheckerNames: every violation a checker reports carries that
// checker's catalogue name (docs/invariants.md).
func TestCheckerNames(t *testing.T) {
	for _, tc := range []struct {
		name    string
		checker invariant.Checker
		spoil   func(p *invariant.Pass)
	}{
		{"grid-sanity", invariant.GridSanity{}, func(p *invariant.Pass) {
			p.Grid().Fill(0, perfmodel.Decomposition{InvAlpha: -1})
		}},
		{"step1-epsilon", invariant.EpsilonSaturation{}, func(p *invariant.Pass) { p.Procs[2].DesiredIdx = 1 }},
		{"step2-least-loss", invariant.StepTwoReplay{}, func(p *invariant.Pass) { p.Met = false }},
		{"step2-optimal", invariant.StepTwoOptimal{}, func(p *invariant.Pass) { p.Met = false }},
		{"step3-voltage", invariant.VoltageMatch{}, func(p *invariant.Pass) { p.Procs[0].Voltage += units.Volts(0.1) }},
		{"budget-conservation", invariant.BudgetConservation{}, func(p *invariant.Pass) { p.Charged += units.Watts(1) }},
	} {
		p := cleanPass(t, testConfig())
		tc.spoil(p)
		vs := tc.checker.Check(p)
		if len(vs) == 0 || names(vs)[tc.name] != len(vs) {
			t.Errorf("%s: violations %v, want at least one, all named %q", tc.name, vs, tc.name)
		}
	}
}
