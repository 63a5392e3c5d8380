package scenario

import (
	"strings"
	"testing"
)

// servingSpec is a small hand-built serving scenario: two nodes, a web
// class with a tight SLO and a timeout, and a batch class, through a
// budget drop.
func servingSpec(seed int64) Spec {
	return Spec{
		Seed:            seed,
		Table:           "paper",
		Nodes:           []NodeSpec{{CPUs: []CPUSpec{{Kind: IdleCPU}, {Kind: IdleCPU}}}, {CPUs: []CPUSpec{{Kind: IdleCPU}}}},
		Rounds:          12,
		SchedulePeriods: 2,
		Epsilon:         0.1,
		BudgetW:         250,
		Events:          []BudgetEvent{{Round: 4, Watts: 60}, {Round: 9, Watts: 250}},
		Serving: &ServingSpec{Classes: []ServingClassSpec{
			{Name: "web", Arrival: "gamma:20,cv=1.5", Clients: 2, MeanMInstr: 8,
				SizeCV: 0.3, SLOMs: 60, TimeoutMs: 120, QueueCap: 16, Priority: 1},
			{Name: "batch", Arrival: "poisson:5", Clients: 1, MeanMInstr: 30,
				SLOMs: 800, QueueCap: 32},
		}},
	}
}

// TestGenerateServing: the generator emits serving overlays for a
// healthy fraction of seeds, every one validates, and serving seeds have
// all-idle CPU kinds (the stations own the CPUs).
func TestGenerateServing(t *testing.T) {
	serving := 0
	for seed := int64(1); seed <= 300; seed++ {
		s := Generate(seed)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if s.Serving == nil {
			continue
		}
		serving++
		for ni, n := range s.Nodes {
			for ci, c := range n.CPUs {
				if c.Kind != IdleCPU {
					t.Fatalf("seed %d: serving scenario node %d cpu %d kind %q", seed, ni, ci, c.Kind)
				}
			}
		}
	}
	if serving < 50 || serving > 150 {
		t.Errorf("serving overlays in 300 seeds: %d, want roughly 30%%", serving)
	}
}

// TestRunClusterServing: a serving scenario runs clean under the full
// invariant suite (including queue conservation every round), carries
// traffic, and renders serve lines into the canonical trace.
func TestRunClusterServing(t *testing.T) {
	spec := servingSpec(7)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := RunCluster(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %+v", res.Violations)
	}
	last := res.Trace[len(res.Trace)-1]
	if len(last.Serve) != len(spec.Nodes) {
		t.Fatalf("serve traces: %d, want %d", len(last.Serve), len(spec.Nodes))
	}
	var offered, completed uint64
	for _, sv := range last.Serve {
		offered += sv.Offered
		completed += sv.Completed
	}
	if offered == 0 || completed == 0 {
		t.Fatalf("no traffic served: offered %d completed %d", offered, completed)
	}
	if !strings.Contains(res.Text, " serve off=") {
		t.Fatalf("trace text lacks serve lines:\n%s", res.Text)
	}
}

// TestRunClusterServingDeterministic: same spec, byte-identical trace —
// the serving layer introduces no hidden randomness.
func TestRunClusterServingDeterministic(t *testing.T) {
	spec := servingSpec(7)
	a, err := RunCluster(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCluster(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != b.Text {
		t.Fatalf("traces differ:\n%s\n---\n%s", a.Text, b.Text)
	}
}

// TestDifferentialStripsServing: the differential harness strips the
// serving overlay on both sides and the fault-free runs stay equivalent.
func TestDifferentialStripsServing(t *testing.T) {
	spec := servingSpec(11)
	spec.Rounds = 6
	spec.Events = nil
	d, err := RunDifferential(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec.Serving != nil {
		t.Fatal("differential kept the serving overlay")
	}
	if !d.Equivalent {
		t.Fatalf("divergences: %+v", d.Divergences)
	}
	if strings.Contains(d.Base.Text, " serve ") {
		t.Fatal("stripped run still traced serving")
	}
}

// TestShrinkServing: shrinking a failure that only needs the serving
// overlay strips everything else and minimises the overlay itself to one
// class with one client.
func TestShrinkServing(t *testing.T) {
	spec := servingSpec(13)
	spec.UPS = &UPSSpec{FailRound: 5, CapacityJ: 4000, RunwaySec: 5}
	failing := func(s Spec) bool { return s.Serving != nil }
	shrunk, attempts := Shrink(spec, failing, 500)
	if attempts == 0 {
		t.Fatal("no shrink attempts")
	}
	if shrunk.Serving == nil {
		t.Fatal("shrink lost the failure-carrying overlay")
	}
	if shrunk.UPS != nil {
		t.Error("shrink kept the UPS")
	}
	if n := len(shrunk.Serving.Classes); n != 1 {
		t.Errorf("shrunk classes: %d, want 1", n)
	}
	if c := shrunk.Serving.Classes[0].Clients; c != 1 {
		t.Errorf("shrunk clients: %d, want 1", c)
	}
	if len(shrunk.Nodes) != 1 || len(shrunk.Nodes[0].CPUs) != 1 {
		t.Errorf("shrunk topology: %d nodes, %d CPUs on node 0",
			len(shrunk.Nodes), len(shrunk.Nodes[0].CPUs))
	}
}
