package scenario

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/invariant"
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
		if bare.Text != "" {
			t.Fatalf("%s seed %d: runCluster rendered its trace", c.name, c.spec.Seed)
		}
		checked.render()
		bare.render()
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

// TestReplayOneULPIsDeterminismViolation: a replay whose only difference
// is the last bit of one CPU's actual frequency is a determinism
// violation, with the detail CheckDeterminism gives the two full texts:
// the mutated proc line and both texts' lengths.
func TestReplayOneULPIsDeterminismViolation(t *testing.T) {
	spec := servingSpec(3)
	const round, proc = 5, 1
	replay := func(check bool) (*RunResult, error) {
		r, err := runCluster(spec, Options{}, false, check)
		if err == nil && !check {
			p := &r.Trace[round].Procs[proc]
			p.ActualMHz = math.Nextafter(p.ActualMHz, math.Inf(1))
		}
		return r, err
	}
	first, det := checkReplay("cluster seed 3", replay)
	if first == nil || len(first.Violations) != 0 {
		t.Fatalf("checked run: %+v", first)
	}
	mutated, err := replay(false)
	if err != nil {
		t.Fatal(err)
	}
	mutated.render()
	texts := []string{first.Text, mutated.Text}
	want := invariant.CheckDeterminism("cluster seed 3", func() (string, error) {
		text := texts[0]
		texts = texts[1:]
		return text, nil
	})
	line := 1 + proc + 1
	for _, r := range first.Trace[:round] {
		line += 1 + len(r.Procs) + len(r.Serve)
	}
	detail := fmt.Sprintf("cluster seed 3: replay diverged at line %d (%d vs %d bytes)", line, len(first.Text), len(mutated.Text))
	if len(want) != 1 || want[0].Detail != detail {
		t.Fatalf("oracle: %+v, want %q", want, detail)
	}
	if !slices.Equal(det, want) {
		t.Fatalf("got %+v, want %+v", det, want)
	}
	d := diffRuns(spec, first, mutated, "checked", "replay", nil)
	if len(d.Divergences) != 1 || d.Divergences[0].Round != round {
		t.Fatalf("diffRuns: %+v", d.Divergences)
	}
	if _, det := checkReplay("cluster seed 3", func(check bool) (*RunResult, error) {
		return runCluster(spec, Options{}, false, check)
	}); det != nil {
		t.Fatalf("an unmutated replay: %+v", det)
	}
}
