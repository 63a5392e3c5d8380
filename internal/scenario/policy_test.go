package scenario

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/fvsst"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

func TestPolicyKnobsRejected(t *testing.T) {
	spec := Generate(1)
	cases := []struct {
		name string
		opt  Options
	}{
		{"negative epsilon", Options{Policy: &PolicyKnobs{Epsilon: -0.1}}},
		{"epsilon at one", Options{Policy: &PolicyKnobs{Epsilon: 1.0}}},
		{"negative debounce", Options{Policy: &PolicyKnobs{DebouncePasses: -1}}},
		{"unknown allocator", Options{Policy: &PolicyKnobs{Allocator: "magic"}}},
		{"policy with sabotage", Options{Policy: &PolicyKnobs{Epsilon: 0.1}, Sabotage: SabotageStepTwoInvert}},
	}
	for _, tc := range cases {
		if _, err := RunCluster(spec, tc.opt); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestPolicyKnobsRewrites(t *testing.T) {
	cases := []struct {
		knobs *PolicyKnobs
		want  bool
	}{
		{nil, false},
		{&PolicyKnobs{}, false},
		{&PolicyKnobs{Epsilon: 0.2}, false},
		{&PolicyKnobs{DebouncePasses: 1}, false},
		{&PolicyKnobs{DebouncePasses: 2}, true},
		{&PolicyKnobs{Allocator: AllocGreedy}, false},
		{&PolicyKnobs{Allocator: AllocUniform}, true},
		{&PolicyKnobs{Allocator: AllocOptimal}, true},
	}
	for i, tc := range cases {
		if got := tc.knobs.rewrites(); got != tc.want {
			t.Errorf("case %d: rewrites() = %v, want %v", i, got, tc.want)
		}
	}
}

// TestMeasureGap turns on the exact-optimal comparison across generated
// seeds: the paper's greedy must never beat the exact optimum, the gap
// sums must be deterministic, and the fitness fields must populate.
func TestMeasureGap(t *testing.T) {
	measured := 0
	for seed := int64(1); seed <= 8; seed++ {
		spec := Generate(seed)
		r1, err := RunCluster(spec, Options{MeasureGap: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(r1.Violations) != 0 {
			t.Fatalf("seed %d: %+v", seed, r1.Violations)
		}
		g := r1.Gap
		if g == nil {
			t.Fatalf("seed %d: MeasureGap produced no stats", seed)
		}
		if g.GreedyLoss < g.OptimalLoss-1e-12 {
			t.Fatalf("seed %d: greedy %v beats exact optimum %v", seed, g.GreedyLoss, g.OptimalLoss)
		}
		if g.WorstGap < 0 {
			t.Fatalf("seed %d: negative worst gap %v", seed, g.WorstGap)
		}
		if r1.EnergyJ <= 0 {
			t.Fatalf("seed %d: no energy accumulated", seed)
		}
		if r1.PredLoss < 0 {
			t.Fatalf("seed %d: negative predicted loss", seed)
		}
		if g.Passes > 0 {
			measured++
		}
		r2, err := RunCluster(spec, Options{MeasureGap: true})
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if !reflect.DeepEqual(r1.Gap, r2.Gap) || r1.PredLoss != r2.PredLoss || r1.EnergyJ != r2.EnergyJ {
			t.Fatalf("seed %d: gap measurement nondeterministic", seed)
		}
	}
	if measured == 0 {
		t.Fatal("no seed produced a measurable pass")
	}
}

// TestPolicyEpsilonOverride: an ε-only knob flows through the scheduler
// config — the full default suite still passes, and the knob actually
// changes decisions on at least one seed.
func TestPolicyEpsilonOverride(t *testing.T) {
	changed := false
	for seed := int64(1); seed <= 20; seed++ {
		spec := Generate(seed).FaultFree()
		base, err := RunCluster(spec, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		alt, err := RunCluster(spec, Options{Policy: &PolicyKnobs{Epsilon: 0.30}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(alt.Violations) != 0 {
			t.Fatalf("seed %d: ε override broke invariants: %+v", seed, alt.Violations)
		}
		if alt.Text != base.Text {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("ε=0.30 changed no decisions across 20 seeds")
	}
}

// TestPolicyOptimalAllocator replaces Step 2 with the exact solver: the
// reduced suite stays clean and the measured gap is identically zero —
// the run IS the optimum.
func TestPolicyOptimalAllocator(t *testing.T) {
	measured := 0
	for seed := int64(1); seed <= 6; seed++ {
		spec := Generate(seed).FaultFree()
		r, err := RunCluster(spec, Options{
			Policy:     &PolicyKnobs{Allocator: AllocOptimal},
			MeasureGap: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(r.Violations) != 0 {
			t.Fatalf("seed %d: %+v", seed, r.Violations)
		}
		if r.Gap == nil {
			t.Fatalf("seed %d: no gap stats", seed)
		}
		if r.Gap.NonOptimal != 0 {
			t.Fatalf("seed %d: optimal allocator measured %d non-optimal passes, worst gap %v",
				seed, r.Gap.NonOptimal, r.Gap.WorstGap)
		}
		measured += r.Gap.Passes
	}
	if measured == 0 {
		t.Fatal("no pass measured under the optimal allocator")
	}
}

// TestPolicyUniformAllocator: the loss-blind demotion baseline runs
// clean under the reduced suite and is deterministic.
func TestPolicyUniformAllocator(t *testing.T) {
	spec := servingSpec(7) // budget drop to 60 W forces demotions
	opt := Options{Policy: &PolicyKnobs{Allocator: AllocUniform}}
	a, err := RunCluster(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Violations) != 0 {
		t.Fatalf("uniform allocator broke invariants: %+v", a.Violations)
	}
	b, err := RunCluster(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != b.Text {
		t.Fatal("uniform allocator nondeterministic")
	}
}

// TestPolicyDebounce: holding Step-1 desires for repeated confirmation
// changes decisions somewhere, never breaks the reduced suite, and stays
// deterministic.
func TestPolicyDebounce(t *testing.T) {
	changed := false
	opt := Options{Policy: &PolicyKnobs{DebouncePasses: 3}}
	for seed := int64(1); seed <= 20; seed++ {
		spec := Generate(seed).FaultFree()
		base, err := RunCluster(spec, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		alt, err := RunCluster(spec, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(alt.Violations) != 0 {
			t.Fatalf("seed %d: debounce broke invariants: %+v", seed, alt.Violations)
		}
		alt2, err := RunCluster(spec, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if alt.Text != alt2.Text {
			t.Fatalf("seed %d: debounce nondeterministic", seed)
		}
		if alt.Text != base.Text {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("debounce of 3 passes changed no decisions across 20 seeds")
	}
}

// TestPolicyDebounceNeverBlocksBudgetEnforcement: a long debounce holds
// Step-1 desires, never Step 2's demotions, so a budget drop is met on
// the very pass it triggers.
func TestPolicyDebounceNeverBlocksBudgetEnforcement(t *testing.T) {
	busy := []CPUSpec{{Kind: CPUBound, Alpha: 1.4}, {Kind: CPUBound, Alpha: 1.4}}
	spec := Spec{
		Seed: 1, Table: "paper", Rounds: 8, SchedulePeriods: 2, Epsilon: 0.05,
		Nodes:   []NodeSpec{{CPUs: busy}, {CPUs: busy}},
		BudgetW: 560,
		Events:  []BudgetEvent{{Round: 4, Watts: 150}},
	}
	r, err := RunCluster(spec, Options{Policy: &PolicyKnobs{DebouncePasses: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("debounce broke invariants: %+v", r.Violations)
	}
	prev := r.Trace[3]
	if prev.ChargedW <= 150 {
		t.Fatalf("round before the drop charged %v W: the 150 W budget would not bite", prev.ChargedW)
	}
	drop := r.Trace[4]
	if drop.Trigger != "budget-change" || drop.BudgetW != 150 {
		t.Fatalf("round 4: trigger %q at %v W, want the budget-change pass at 150 W", drop.Trigger, drop.BudgetW)
	}
	if !drop.Met || drop.ChargedW > drop.BudgetW {
		t.Errorf("debounce blocked the budget drop: charged %v W of %v W (met=%v)", drop.ChargedW, drop.BudgetW, drop.Met)
	}
}

// policyObs is a valid counter window at f; memRefs sets how memory-bound
// it looks, and so how low Step 1's desire goes.
func policyObs(f units.Frequency, memRefs uint64) *perfmodel.Observation {
	return &perfmodel.Observation{
		Delta: counters.Delta{Window: 0.02, Instructions: 2_000_000, Cycles: 3_000_000, MemRefs: memRefs},
		Freq:  f,
	}
}

// TestPolicyDebounceStreakSurvivesStep2Demotion: under a budget that
// demotes every CPU on every pass, the debounce streak follows Step 1's
// desire, never the demoted actual. A changed desire matures on the k-th
// pass that repeats it, exactly as it would with no demotion at all.
func TestPolicyDebounceStreakSurvivesStep2Demotion(t *testing.T) {
	const k = 3
	cfg := fvsst.DefaultConfig()
	core, err := cluster.NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	table := cfg.Table
	fmax := table.FrequencyAtIndex(table.Len() - 1)
	budget := 2 * table.PowerAtIndex(1)
	st := &policyState{knobs: PolicyKnobs{DebouncePasses: k}, streaks: map[procKey]debounce{}}
	inputs := func(memRefs uint64) []cluster.ProcInput {
		in := make([]cluster.ProcInput, 2)
		for i := range in {
			in[i] = cluster.ProcInput{Proc: cluster.ProcRef{CPU: i}, Node: "n0", Obs: policyObs(fmax, memRefs)}
		}
		return in
	}
	// pass runs one core pass and its rewrite, and returns Step 1's desire
	// per CPU as a table index.
	pass := func(in []cluster.ProcInput) []int {
		t.Helper()
		res, err := core.Schedule(in, budget)
		if err != nil {
			t.Fatal(err)
		}
		desired := make([]int, len(in))
		for i, a := range res.Assignments {
			desired[i] = table.IndexOf(a.Desired)
			if a.Actual >= a.Desired {
				t.Fatalf("cpu %d: actual %v not demoted below desire %v", i, a.Actual, a.Desired)
			}
		}
		out, err := st.rewrite(core, in, res, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !out.BudgetMet || out.TablePower > budget {
			t.Fatalf("rewritten pass charged %v of %v (met=%v)", out.TablePower, budget, out.BudgetMet)
		}
		return desired
	}
	streak := func(cpu int) debounce { return st.streaks[procKey{"n0", cpu}] }

	// The first observation adopts its desire outright.
	first := pass(inputs(0))
	for cpu, want := range first {
		if d := streak(cpu); d.held != want {
			t.Fatalf("first pass cpu %d: held %d, want the desire %d", cpu, d.held, want)
		}
	}
	// A memory-bound window lowers the desire; it is held back for k-1
	// passes and adopted on the k-th.
	mem := inputs(20_000)
	for i := 1; i <= k; i++ {
		desired := pass(mem)
		for cpu, want := range desired {
			if want == first[cpu] {
				t.Fatalf("cpu %d: the memory-bound window left the desire at %d", cpu, want)
			}
			d := streak(cpu)
			switch {
			case i < k && (d.held != first[cpu] || d.run != i):
				t.Fatalf("pass %d cpu %d: held %d run %d, want %d held for run %d", i, cpu, d.held, d.run, first[cpu], i)
			case i == k && (d.held != want || d.run != 0):
				t.Fatalf("pass %d cpu %d: held %d run %d, want the desire %d adopted", i, cpu, d.held, d.run, want)
			}
		}
	}
}

// TestPolicyDebounceEventuallyFollowsPhaseChange: with a budget that
// demotes nothing, a CPU-bound window runs at the top frequency and a
// phase change to memory-bound work moves the actual frequency down on
// the k-th pass that repeats the lower desire, not before.
func TestPolicyDebounceEventuallyFollowsPhaseChange(t *testing.T) {
	const k = 2
	cfg := fvsst.DefaultConfig()
	core, err := cluster.NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	table := cfg.Table
	fmax := table.FrequencyAtIndex(table.Len() - 1)
	budget := 2 * table.PowerAtIndex(table.Len()-1)
	st := &policyState{knobs: PolicyKnobs{DebouncePasses: k}, streaks: map[procKey]debounce{}}
	pass := func(memRefs uint64) cluster.PassResult {
		t.Helper()
		in := []cluster.ProcInput{{Proc: cluster.ProcRef{CPU: 0}, Node: "n0", Obs: policyObs(fmax, memRefs)}}
		res, err := core.Schedule(in, budget)
		if err != nil {
			t.Fatal(err)
		}
		out, err := st.rewrite(core, in, res, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !out.BudgetMet {
			t.Fatalf("rewritten pass charged %v of %v: the budget demoted", out.TablePower, budget)
		}
		return out
	}

	if a := pass(0).Assignments[0]; a.Actual != fmax {
		t.Fatalf("cpu-bound phase runs at %v, want %v", a.Actual, fmax)
	}
	for i := 1; i <= k; i++ {
		a := pass(20_000).Assignments[0]
		switch {
		case i < k && a.Actual != fmax:
			t.Fatalf("pass %d after the phase change: actual %v, want %v held", i, a.Actual, fmax)
		case i == k && a.Actual >= fmax:
			t.Fatalf("debounced scheduler never followed the phase change: at %v after %d passes", a.Actual, k)
		}
	}
}

// TestServingFitnessTotals: a serving run reports SLO totals for the
// fitness function.
func TestServingFitnessTotals(t *testing.T) {
	r, err := RunCluster(servingSpec(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.SLOResolved == 0 {
		t.Fatal("serving run resolved no requests")
	}
	if r.SLOOk > r.SLOResolved {
		t.Fatalf("SLO-ok %d exceeds resolved %d", r.SLOOk, r.SLOResolved)
	}
}

// TestSchedulerConfigExport: the scheduling configuration a spec
// resolves to carries its ε and a power table.
func TestSchedulerConfigExport(t *testing.T) {
	spec := Generate(3)
	cfg, err := spec.fvsstConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Epsilon != spec.Epsilon {
		t.Fatalf("config ε %v, spec ε %v", cfg.Epsilon, spec.Epsilon)
	}
	if cfg.Table == nil {
		t.Fatal("config lacks a power table")
	}
}
