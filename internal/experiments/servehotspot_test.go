package experiments

import "testing"

// TestServeHotspot asserts the farm-level claim: least-loss hierarchical
// allocation strictly beats equal-split on the hot cluster's web SLO
// attainment (and tail latency), because it moves stranded cold-cluster
// watts to where the requests are.
func TestServeHotspot(t *testing.T) {
	rep, err := ServeHotspot(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	hh, eh := rep.Hierarchical.Clusters[0], rep.EqualSplit.Clusters[0]
	if hh.Cluster != "hot" || hh.Offered == 0 {
		t.Fatalf("hot cluster row malformed: %+v", hh)
	}
	if hh.Attainment <= eh.Attainment {
		t.Errorf("hot web attainment: hierarchical %.3f not above equal-split %.3f",
			hh.Attainment, eh.Attainment)
	}
	if hh.P99S >= eh.P99S {
		t.Errorf("hot web p99: hierarchical %.4fs not below equal-split %.4fs", hh.P99S, eh.P99S)
	}
	if hh.MeanAllocW <= eh.MeanAllocW {
		t.Errorf("hot mean allocation: hierarchical %.0fW not above equal-split %.0fW",
			hh.MeanAllocW, eh.MeanAllocW)
	}
	// The cold cluster's trickle stays healthy under both policies: the
	// allocator never starves it below its floor.
	for _, p := range rep.Outcomes() {
		cold := p.Clusters[1]
		if cold.Attainment < 0.9 {
			t.Errorf("%s: cold attainment %.3f", p.Policy, cold.Attainment)
		}
	}
}

// TestServeHotspotDeterministic: equal options give byte-identical
// reports.
func TestServeHotspotDeterministic(t *testing.T) {
	run := func() string {
		rep, err := ServeHotspot(testOptions())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("renders differ:\n%s\n---\n%s", a, b)
	}
}
