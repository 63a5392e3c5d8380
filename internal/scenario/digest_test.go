package scenario

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestSuiteDoesNotReachText: a checked run and a digest-only run of the
// same spec hash the same and feed the checkers the same inputs, round by
// round, so the soak's replay and the DES reference arm can skip the
// suite. The digest-only run reports nothing and is not hashed.
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
		if bare.Hash != "" {
			t.Fatalf("%s seed %d: runCluster rendered its trace", c.name, c.spec.Seed)
		}
		checked.render()
		bare.render()
		if checked.Hash != bare.Hash {
			t.Fatalf("%s seed %d: the suite reached the trace (%s vs %s)", c.name, c.spec.Seed, checked.Hash, bare.Hash)
		}
		if len(checked.digests) != c.spec.Rounds || !slices.Equal(checked.digests, bare.digests) {
			t.Fatalf("%s seed %d: checker inputs differ at round %d", c.name, c.spec.Seed, firstDigestDiff(checked, bare))
		}
		if len(bare.Violations) != 0 || bare.Gap != nil {
			t.Fatalf("%s seed %d: the digest-only run checked something", c.name, c.spec.Seed)
		}
		if c.opt.Sabotage != "" && len(checked.Violations) == 0 {
			t.Fatalf("%s seed %d: the checked run missed the sabotage", c.name, c.spec.Seed)
		}
	}
}

// replayWith is runCluster whose digest-only runs pass through mutate
// before the caller sees them; runs collects every run in order.
func replayWith(runs *[]*RunResult, mutate func(*RunResult)) func(Spec, Options, bool, bool) (*RunResult, error) {
	return func(spec Spec, opt Options, stepped, check bool) (*RunResult, error) {
		r, err := runCluster(spec, opt, stepped, check)
		if err == nil && !check {
			mutate(r)
		}
		*runs = append(*runs, r)
		return r, err
	}
}

// TestDigestMismatchFailsReplayAndDES: equal rounds are not enough. A
// replay whose rounds match but whose checker inputs differ in one round
// is one determinism violation of the cluster job at that round, and
// one divergence of the DES comparison, both naming it.
func TestDigestMismatchFailsReplayAndDES(t *testing.T) {
	const seed, round = 4, 2
	var runs []*RunResult
	res := SeedResult{Kind: "cluster", Seed: seed}
	runClusterJob(&res, SoakConfig{}, replayWith(&runs, func(r *RunResult) { r.digests[round][5] ^= 1 }))
	if res.Err != "" || len(runs) != 2 {
		t.Fatalf("err %q after %d runs", res.Err, len(runs))
	}
	a, b := runs[0], runs[1]
	want := fmt.Sprintf("cluster seed %d: round %d: checked and replay fed the checkers different inputs", seed, round)
	if v := res.Violations; len(v) != 1 || v[0].Checker != "determinism" || v[0].Detail != want || v[0].At != a.Trace[round].At {
		t.Fatalf("cluster job: %+v, want %q at t=%v", v, want, a.Trace[round].At)
	}
	spec := Generate(seed)
	if d := diffClusterRuns(spec, a, a, "quantum", "des"); !d.Equivalent {
		t.Fatalf("identical runs diverged: %+v", d.Divergences)
	}
	d := diffClusterRuns(spec, b, a, "quantum", "des")
	if d.Equivalent || len(d.Divergences) != 1 || d.Divergences[0] != (Divergence{Round: round, Detail: "quantum and des fed the checkers different inputs"}) {
		t.Fatalf("DES path: equivalent=%v %+v", d.Equivalent, d.Divergences)
	}
	b.digests = b.digests[:round]
	if d := diffClusterRuns(spec, a, b, "quantum", "des"); d.Equivalent || d.Divergences[0].Round != round {
		t.Fatalf("short digest list: equivalent=%v %+v", d.Equivalent, d.Divergences)
	}
}

// TestOneULPFailsReplayAndDES: a replay whose only difference is the last
// bit of one CPU's actual frequency is exactly one determinism violation
// of the cluster job, naming the round and both act= lines, and one
// divergence of the DES comparison. An unmutated replay is clean.
func TestOneULPFailsReplayAndDES(t *testing.T) {
	const round, proc = 5, 1
	seed := pickSeeds(t, 1, func(s Spec) bool { return len(s.Partitions) == 0 && len(s.Nodes[0].CPUs) > proc })[0]
	var runs []*RunResult
	res := SeedResult{Kind: "cluster", Seed: seed}
	runClusterJob(&res, SoakConfig{}, replayWith(&runs, func(r *RunResult) {
		p := &r.Trace[round].Procs[proc]
		p.ActualMHz = math.Nextafter(p.ActualMHz, math.Inf(1))
	}))
	if res.Err != "" || len(runs) != 2 {
		t.Fatalf("err %q after %d runs", res.Err, len(runs))
	}
	first, replay := runs[0], runs[1]
	line := func(r *RunResult) string {
		return strings.TrimSpace(strings.Split(renderOne(r, round), "\n")[1+proc])
	}
	a, b := line(first), line(replay)
	if !strings.Contains(a, " act=") || a == b {
		t.Fatalf("proc lines %q and %q", a, b)
	}
	want := fmt.Sprintf("cluster seed %d: round %d: checked %q vs replay %q", seed, round, a, b)
	if v := res.Violations; len(v) != 1 || v[0].Checker != "determinism" || v[0].Detail != want || v[0].At != first.Trace[round].At {
		t.Fatalf("cluster job: %+v, want %q", v, want)
	}
	d := diffClusterRuns(Generate(seed), first, replay, "quantum", "des")
	if len(d.Divergences) != 1 || d.Divergences[0] != (Divergence{Round: round, Detail: fmt.Sprintf("quantum %q vs des %q", a, b)}) {
		t.Fatalf("DES path: %+v", d.Divergences)
	}
	clean := SeedResult{Kind: "cluster", Seed: seed}
	runClusterJob(&clean, SoakConfig{}, runCluster)
	if clean.Err != "" || len(clean.Violations) != 0 || clean.Hash != first.Hash {
		t.Fatalf("an unmutated replay: %+v", clean)
	}
}

// TestClusterJobReplayFaults: a seed whose only violation is determinism
// is dumped but not shrunk (the shrink predicate sees only the suite), a
// failed replay is a determinism violation, and a failed first run is the
// job's error.
func TestClusterJobReplayFaults(t *testing.T) {
	const seed = 3
	dir := t.TempDir()
	cfg := SoakConfig{ShrinkMax: 50, DumpDir: dir}
	var runs []*RunResult
	res := SeedResult{Kind: "cluster", Seed: seed}
	runClusterJob(&res, cfg, replayWith(&runs, func(r *RunResult) { r.Trace[0].Met = !r.Trace[0].Met }))
	if len(res.Violations) != 1 || res.Violations[0].Checker != "determinism" {
		t.Fatalf("violations: %+v", res.Violations)
	}
	if res.Shrunk != nil || res.ShrinkAttempts != 0 {
		t.Fatalf("a determinism-only seed was shrunk in %d attempts", res.ShrinkAttempts)
	}
	if res.Trace == "" || res.TraceErr != "" {
		t.Fatalf("trace %q, error %q", res.Trace, res.TraceErr)
	}

	boom := errors.New("boom")
	failing := func(check bool) func(Spec, Options, bool, bool) (*RunResult, error) {
		return func(spec Spec, opt Options, stepped, c bool) (*RunResult, error) {
			if c == check {
				return nil, boom
			}
			return runCluster(spec, opt, stepped, c)
		}
	}
	res = SeedResult{Kind: "cluster", Seed: seed}
	runClusterJob(&res, cfg, failing(false))
	want := fmt.Sprintf("cluster seed %d: replay failed: boom", seed)
	if res.Err != "" || len(res.Violations) != 1 || res.Violations[0].Checker != "determinism" || res.Violations[0].Detail != want {
		t.Fatalf("replay error: %+v", res)
	}
	res = SeedResult{Kind: "cluster", Seed: seed}
	runClusterJob(&res, cfg, failing(true))
	if want := fmt.Sprintf("cluster seed %d: first run failed: boom", seed); res.Err != want || len(res.Violations) != 0 {
		t.Fatalf("first-run error: %+v, want Err %q", res, want)
	}
}

// TestFarmReplayNamesChangedLine: a farm replay whose pass history
// differs in one line is one determinism violation naming that line on
// both sides; a failed replay is a determinism violation and a failed
// first run the job's error.
func TestFarmReplayNamesChangedLine(t *testing.T) {
	const seed, k = 20_001, 3
	replayWith := func(replay func(r *RunResult) (*RunResult, error)) func(FarmSpec) (*RunResult, error) {
		calls := 0
		return func(s FarmSpec) (*RunResult, error) {
			r, err := RunFarm(s)
			if calls++; calls == 2 && err == nil {
				return replay(r)
			}
			return r, err
		}
	}
	var old, changed string
	res := SeedResult{Kind: "farm", Seed: seed}
	runFarmJob(&res, replayWith(func(r *RunResult) (*RunResult, error) {
		lines := strings.SplitAfter(string(r.fingerprint), "\n")
		old = strings.TrimSpace(lines[k])
		changed = old + "1"
		lines[k] = changed + "\n"
		r.fingerprint = []byte(strings.Join(lines, ""))
		return r, nil
	}))
	want := fmt.Sprintf("farm seed %d: replay diverged: first %q vs replay %q", seed, old, changed)
	if v := res.Violations; res.Err != "" || len(v) != 1 || v[0].Checker != "determinism" || v[0].Detail != want {
		t.Fatalf("changed line: %+v, want %q", res, want)
	}

	res = SeedResult{Kind: "farm", Seed: seed}
	runFarmJob(&res, RunFarm)
	if res.Err != "" || len(res.Violations) != 0 || res.Hash == "" {
		t.Fatalf("an unchanged replay: %+v", res)
	}
	res = SeedResult{Kind: "farm", Seed: seed}
	runFarmJob(&res, replayWith(func(*RunResult) (*RunResult, error) { return nil, errors.New("boom") }))
	if want := fmt.Sprintf("farm seed %d: replay failed: boom", seed); len(res.Violations) != 1 || res.Violations[0].Detail != want {
		t.Fatalf("replay error: %+v", res)
	}
	res = SeedResult{Kind: "farm", Seed: seed}
	runFarmJob(&res, func(FarmSpec) (*RunResult, error) { return nil, errors.New("boom") })
	if want := fmt.Sprintf("farm seed %d: first run failed: boom", seed); res.Err != want || len(res.Violations) != 0 {
		t.Fatalf("first-run error: %+v", res)
	}
}
