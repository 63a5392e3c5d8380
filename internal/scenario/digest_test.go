package scenario

import (
	"slices"
	"testing"
)

// TestSuiteDoesNotReachText: a checked run and a digest-only run of the
// same spec render the same text and hash and feed the checkers the same
// inputs, round by round, so the soak's replay and the DES reference arm
// can skip the suite. The digest-only run reports nothing.
func TestSuiteDoesNotReachText(t *testing.T) {
	type run struct {
		name string
		spec Spec
		opt  Options
	}
	var runs []run
	for seed := int64(1); seed <= 200; seed++ {
		runs = append(runs, run{"generated", Generate(seed), Options{}})
	}
	runs = append(runs,
		run{"serving", servingSpec(3), Options{}},
		run{"step2-invert", Generate(2), Options{Sabotage: SabotageStepTwoInvert}})
	for _, c := range runs {
		checked, err := runCluster(c.spec, c.opt, false, true)
		if err != nil {
			t.Fatalf("%s seed %d: %v", c.name, c.spec.Seed, err)
		}
		bare, err := runCluster(c.spec, c.opt, false, false)
		if err != nil {
			t.Fatalf("%s seed %d digest-only: %v", c.name, c.spec.Seed, err)
		}
		if checked.Text != bare.Text || checked.Hash != bare.Hash {
			t.Fatalf("%s seed %d: the suite reached the trace (%s vs %s)", c.name, c.spec.Seed, checked.Hash, bare.Hash)
		}
		if len(checked.digests) != c.spec.Rounds || !slices.Equal(checked.digests, bare.digests) {
			t.Fatalf("%s seed %d: checker inputs differ at round %d", c.name, c.spec.Seed, firstDigestDiff(checked, bare))
		}
		if len(bare.Violations) != 0 || bare.Gap != nil || bare.PredLoss != 0 {
			t.Fatalf("%s seed %d: the digest-only run checked something", c.name, c.spec.Seed)
		}
		if c.opt.Sabotage != "" && len(checked.Violations) == 0 {
			t.Fatalf("%s seed %d: the checked run missed the sabotage", c.name, c.spec.Seed)
		}
	}
}

// TestDigestMismatchIsDivergence: equal text is not enough. A run whose
// text matches but whose checker inputs differ in one round fails the
// soak's determinism check and the DES differential, both naming it.
func TestDigestMismatchIsDivergence(t *testing.T) {
	spec := Generate(4)
	a, err := RunCluster(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := *a
	b.digests = slices.Clone(a.digests)
	b.digests[2][5] ^= 1
	if v := replayDivergence("cluster seed 4", a, a); v != nil {
		t.Fatalf("identical runs: %v", v)
	}
	v := replayDivergence("cluster seed 4", a, &b)
	if len(v) != 1 || v[0].Checker != "determinism" || v[0].Detail != "cluster seed 4: replay fed the checkers different inputs in round 2" {
		t.Fatalf("soak path: %+v", v)
	}
	if d := desDiff(spec, a, a); !d.Equivalent {
		t.Fatalf("identical runs diverged: %+v", d.Divergences)
	}
	d := desDiff(spec, &b, a)
	if d.Equivalent || len(d.Divergences) != 1 || d.Divergences[0].Round != 2 {
		t.Fatalf("DES path: equivalent=%v %+v", d.Equivalent, d.Divergences)
	}
	b.digests = b.digests[:2]
	if d := desDiff(spec, a, &b); d.Equivalent || d.Divergences[0].Round != 2 {
		t.Fatalf("short digest list: equivalent=%v %+v", d.Equivalent, d.Divergences)
	}
}
