package scenario

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

// eventLog is a trace sink that keeps every event in emission order.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) Emit(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// all returns a copy of the events so far.
func (l *eventLog) all() []obs.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.Event(nil), l.events...)
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not a pure function of the seed", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid spec: %v", seed, err)
		}
	}
}

func TestSpecHelpers(t *testing.T) {
	var s Spec
	for seed := int64(1); ; seed++ {
		s = Generate(seed)
		if len(s.Partitions) > 0 && s.UPS != nil {
			break
		}
	}
	ff := s.FaultFree()
	if len(ff.Partitions) != 0 || len(ff.Policies) != 0 || ff.UPS != nil {
		t.Fatal("FaultFree left faults behind")
	}
	nu := s.WithoutUPS()
	if nu.UPS != nil || len(nu.Partitions) != len(s.Partitions) {
		t.Fatal("WithoutUPS should strip exactly the UPS")
	}
	w := s.Partitions[0]
	if !s.partitioned(w.Node, w.From) || s.partitioned(w.Node, w.To) {
		t.Fatal("partition window must be [From, To)")
	}
	if !s.faultAffected(w.From) {
		t.Fatal("partition round not marked fault-affected")
	}
	if ff.faultAffected(w.From) {
		t.Fatal("fault-free spec has fault-affected rounds")
	}
}

func TestValidateRejections(t *testing.T) {
	base := Generate(1)
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no nodes", func(s *Spec) { s.Nodes = nil }},
		{"empty node", func(s *Spec) { s.Nodes[0].CPUs = nil }},
		{"no rounds", func(s *Spec) { s.Rounds = 0 }},
		{"no periods", func(s *Spec) { s.SchedulePeriods = 0 }},
		{"bad epsilon", func(s *Spec) { s.Epsilon = 1.5 }},
		{"bad budget", func(s *Spec) { s.BudgetW = 0 }},
		{"bad table", func(s *Spec) { s.Table = "nope" }},
		{"bad event", func(s *Spec) { s.Events = []BudgetEvent{{Round: 1, Watts: -3}} }},
		{"bad window", func(s *Spec) { s.Partitions = []Window{{Node: 99, From: 1, To: 2}} }},
		{"inverted window", func(s *Spec) { s.Policies = []PolicyWindow{{Node: 0, From: 3, To: 3, Drop: 0.1}} }},
		{"bad ups", func(s *Spec) { s.UPS = &UPSSpec{FailRound: 1, CapacityJ: -1, RunwaySec: 2} }},
	}
	for _, tc := range cases {
		s := clone(base)
		tc.mut(&s)
		if s.Validate() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestClusterInvariantsClean drives generated scenarios through the
// in-process mirror under the full default suite: zero violations, and a
// byte-identical trace on replay.
func TestClusterInvariantsClean(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		spec := Generate(seed)
		r1, err := RunCluster(spec, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(r1.Violations) != 0 {
			t.Errorf("seed %d: %d violation(s); first: %v", seed, len(r1.Violations), r1.Violations[0])
		}
		r2, err := RunCluster(spec, Options{})
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if r1.Hash != r2.Hash {
			t.Errorf("seed %d: nondeterministic (%s vs %s)", seed, r1.Hash, r2.Hash)
		}
		if r1.Rounds != spec.Rounds || len(r1.Trace) != spec.Rounds {
			t.Errorf("seed %d: trace covers %d/%d rounds", seed, len(r1.Trace), spec.Rounds)
		}
	}
}

func TestRunClusterRejectsInvalidSpec(t *testing.T) {
	if _, err := RunCluster(Spec{}, Options{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := RunCluster(Generate(1), Options{Sabotage: "unknown"}); err == nil {
		t.Fatal("unknown sabotage accepted")
	}
}

// TestSabotageDetected breaks Step 2 (inverted loss comparison) and
// demands the checkers catch it: both the budget-conservation and the
// least-loss contracts must fail, and shrinking must yield a smaller spec
// that still reproduces the failure.
func TestSabotageDetected(t *testing.T) {
	opt := Options{Sabotage: SabotageStepTwoInvert}
	// Find a seed where the sabotage bites (it needs budget pressure).
	var spec Spec
	var got map[string]bool
	for seed := int64(1); seed <= 40; seed++ {
		s := Generate(seed).FaultFree()
		r, err := RunCluster(s, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(r.Violations) == 0 {
			continue
		}
		got = map[string]bool{}
		for _, v := range r.Violations {
			got[v.Checker] = true
		}
		if got["budget-conservation"] && got["step2-least-loss"] {
			spec = s
			break
		}
	}
	if spec.Rounds == 0 {
		t.Fatalf("no seed in 1..40 triggered both checkers under sabotage (got %v)", got)
	}

	// The property that defines the planted bug: an inverted comparison
	// never finds a victim, so every round leaves every processor at its
	// desire and logs no demotion.
	var events eventLog
	r, err := RunCluster(spec, Options{Sabotage: SabotageStepTwoInvert, Sink: &events})
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range r.Trace {
		for _, p := range rt.Procs {
			if p.ActualMHz != p.DesiredMHz {
				t.Fatalf("round %d %s/cpu%d: sabotaged pass moved %v→%v", rt.Round, p.Node, p.CPU, p.DesiredMHz, p.ActualMHz)
			}
		}
	}
	for _, ev := range events.all() {
		if ev.Type == obs.EventSchedule && len(ev.Demotions) != 0 {
			t.Fatalf("t=%v: sabotaged pass logged %d demotions", ev.At, len(ev.Demotions))
		}
	}

	fails := func(s Spec) bool {
		r, err := RunCluster(s, opt)
		return err == nil && len(r.Violations) > 0
	}
	shrunk, attempts := Shrink(spec, fails, 300)
	if attempts == 0 {
		t.Fatal("shrink ran no candidates")
	}
	if !fails(shrunk) {
		t.Fatal("shrunk spec no longer reproduces the failure")
	}
	if shrunk.Seed != spec.Seed {
		t.Fatal("shrink changed the seed")
	}
	cpus := func(s Spec) int {
		n := 0
		for _, nd := range s.Nodes {
			n += len(nd.CPUs)
		}
		return n
	}
	if shrunk.Rounds > spec.Rounds || cpus(shrunk) > cpus(spec) {
		t.Fatalf("shrink grew the spec: %d rounds/%d cpus vs %d/%d",
			shrunk.Rounds, cpus(shrunk), spec.Rounds, cpus(spec))
	}
	// The clean scheduler must pass the exact spec the sabotage fails.
	clean, err := RunCluster(shrunk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Violations) != 0 {
		t.Fatalf("clean run of shrunk spec has violations: %v", clean.Violations[0])
	}
}

func TestShrinkMechanics(t *testing.T) {
	spec := Generate(3)
	// An always-failing predicate shrinks to the structural minimum the
	// validator allows: one node, one CPU, one round, no faults.
	shrunk, _ := Shrink(spec, func(Spec) bool { return true }, 10_000)
	if shrunk.Rounds != 1 || len(shrunk.Nodes) != 1 || len(shrunk.Nodes[0].CPUs) != 1 {
		t.Fatalf("always-fail shrink stopped early: %d rounds, %d nodes", shrunk.Rounds, len(shrunk.Nodes))
	}
	if len(shrunk.Partitions) != 0 || len(shrunk.Policies) != 0 || shrunk.UPS != nil || len(shrunk.Events) != 0 {
		t.Fatalf("always-fail shrink kept faults: %+v", shrunk)
	}
	// A never-failing predicate returns the original unchanged.
	same, attempts := Shrink(spec, func(Spec) bool { return false }, 10_000)
	if !reflect.DeepEqual(same, spec) {
		t.Fatal("non-reproducing shrink mutated the spec")
	}
	if attempts == 0 || attempts > 10_000 {
		t.Fatalf("attempts = %d", attempts)
	}
	// The attempt budget is a hard cap.
	_, attempts = Shrink(spec, func(Spec) bool { return true }, 3)
	if attempts > 3 {
		t.Fatalf("attempt cap exceeded: %d", attempts)
	}
}

func TestFarmInvariantsClean(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		spec := GenerateFarm(seed)
		r1, err := RunFarm(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(r1.Violations) != 0 {
			t.Errorf("seed %d: %d violation(s); first: %v", seed, len(r1.Violations), r1.Violations[0])
		}
		r2, err := RunFarm(spec)
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if r1.Hash != r2.Hash {
			t.Errorf("seed %d: nondeterministic (%s vs %s)", seed, r1.Hash, r2.Hash)
		}
	}
	if _, err := RunFarm(FarmSpec{}); err == nil {
		t.Error("empty farm spec accepted")
	}
}

func TestRunNetRejectsUPS(t *testing.T) {
	var spec Spec
	for seed := int64(1); ; seed++ {
		spec = Generate(seed)
		if spec.UPS != nil {
			break
		}
	}
	if _, err := RunNet(spec); err == nil {
		t.Fatal("RunNet accepted a UPS failover it cannot model")
	}
}

// TestMeasureGap turns on the exact-optimal comparison across generated
// seeds: the paper's greedy must never beat the exact optimum, and the
// gap sums must be deterministic.
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
		if g.Passes > 0 {
			measured++
		}
		r2, err := RunCluster(spec, Options{MeasureGap: true})
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if !reflect.DeepEqual(r1.Gap, r2.Gap) {
			t.Fatalf("seed %d: gap measurement nondeterministic", seed)
		}
	}
	if measured == 0 {
		t.Fatal("no seed produced a measurable pass")
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
