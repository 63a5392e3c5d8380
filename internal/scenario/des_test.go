package scenario

import (
	"testing"

	"repro/internal/serve"
)

// pickSeeds scans the generator for the first n seeds whose specs
// satisfy want, so the differential always covers the shapes it claims
// to (serving overlays included) without hard-coding generator
// internals.
func pickSeeds(t *testing.T, n int, want func(Spec) bool) []int64 {
	t.Helper()
	var seeds []int64
	for s := int64(1); s < 500 && len(seeds) < n; s++ {
		if want(Generate(s)) {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) < n {
		t.Fatalf("found only %d/%d matching seeds in 1..499", len(seeds), n)
	}
	return seeds
}

func requireEquivalent(t *testing.T, seed int64) {
	t.Helper()
	d, err := RunDESDifferential(Generate(seed), Options{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !d.Equivalent {
		for i, div := range d.Divergences {
			if i == 3 {
				t.Errorf("seed %d: ... %d more", seed, len(d.Divergences)-i)
				break
			}
			t.Errorf("seed %d: round %d: %s", seed, div.Round, div.Detail)
		}
		t.Fatalf("seed %d: quantum and DES engines diverged (%s vs %s)", seed, d.Base.Hash, d.Variant.Hash)
	}
	if d.Base.Hash != d.Variant.Hash || d.Base.Text != d.Variant.Text {
		t.Fatalf("seed %d: hashes/text differ: %s vs %s", seed, d.Base.Hash, d.Variant.Hash)
	}
}

func TestDESDifferentialPlainSpecs(t *testing.T) {
	for _, seed := range pickSeeds(t, 3, func(s Spec) bool { return s.Serving == nil }) {
		requireEquivalent(t, seed)
	}
}

func TestDESDifferentialServingSpecs(t *testing.T) {
	for _, seed := range pickSeeds(t, 3, func(s Spec) bool { return s.Serving != nil }) {
		requireEquivalent(t, seed)
	}
}

func TestDESDifferentialFaultySpecs(t *testing.T) {
	// Partition windows freeze machines mid-run; the DES engine must
	// reproduce the freeze/rejoin edges exactly.
	for _, seed := range pickSeeds(t, 2, func(s Spec) bool { return len(s.Partitions) > 0 }) {
		requireEquivalent(t, seed)
	}
}

func TestDESDifferentialBudgetEdges(t *testing.T) {
	// A budget event and a UPS failover move the budget between rounds the
	// DES crosses on fast-forward; the budget-change pass they trigger must
	// land on the same round, with the same inputs, in both engines.
	for _, seed := range pickSeeds(t, 2, func(s Spec) bool {
		return s.Serving == nil && len(s.Events) > 0 && s.UPS != nil
	}) {
		requireEquivalent(t, seed)
		r, err := RunCluster(Generate(seed), Options{})
		if err != nil {
			t.Fatal(err)
		}
		changes := 0
		for _, rt := range r.Trace {
			if rt.Trigger == "budget-change" {
				changes++
			}
		}
		if changes == 0 {
			t.Errorf("seed %d: no budget-change round; the seed crosses no budget edge", seed)
		}
	}
}

// TestRoundSkippable: a node without a station always skips; a serving
// node skips only while its station is drained and no arrival matures
// inside the round.
func TestRoundSkippable(t *testing.T) {
	spec := servingSpec(7)
	m, err := spec.newMachine(0)
	if err != nil {
		t.Fatal(err)
	}
	if n := (&nodeRun{m: m}); !n.roundSkippable(spec.SchedulePeriods) {
		t.Fatal("node without a station not skippable")
	}
	st, feeder, err := spec.newStation(0, m)
	if err != nil {
		t.Fatal(err)
	}
	n := &nodeRun{m: m, st: st, feeder: &serve.Feeder{}}
	if !n.roundSkippable(spec.SchedulePeriods) {
		t.Fatal("drained station with no arrivals not skippable")
	}
	// An arrival maturing inside the round pins per-quantum processing.
	n.feeder = feeder
	periods := int(feeder.NextAt()/quantum) + 1
	if n.roundSkippable(periods) {
		t.Fatalf("round of %d quanta skippable with an arrival at %v", periods, feeder.NextAt())
	}
	// So does work in flight, whatever the feeder says.
	n.feeder = &serve.Feeder{}
	st.Offer(m.Now(), 0, 0)
	if n.roundSkippable(spec.SchedulePeriods) {
		t.Fatal("backlogged station skippable")
	}
}
