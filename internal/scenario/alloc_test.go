package scenario

import "testing"

// TestRoundAllocs guards the round loop's scratch: a digest-only run of
// a fixed serving spec over 2R rounds allocates at most maxRoundAllocs
// more per round than one over R rounds. It measures 3.00:
// cluster.Core.Schedule's Assignments (its Demotions and prediction
// columns are the core's scratch) and the round trace's Procs and Serve.
func TestRoundAllocs(t *testing.T) {
	const rounds = 40
	allocs := func(n int) float64 {
		spec := servingSpec(3)
		spec.Rounds = n
		return testing.AllocsPerRun(20, func() {
			if _, err := runCluster(spec, Options{}, false, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	perRound := (allocs(2*rounds) - allocs(rounds)) / rounds
	t.Logf("%.2f allocations per round", perRound)
	const maxRoundAllocs = 4
	if perRound > maxRoundAllocs {
		t.Fatalf("%.2f allocations per round, want at most %d", perRound, maxRoundAllocs)
	}
}
