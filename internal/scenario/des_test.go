package scenario

import "testing"

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
