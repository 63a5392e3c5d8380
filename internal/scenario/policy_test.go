package scenario

import (
	"reflect"
	"testing"
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
