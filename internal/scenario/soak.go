package scenario

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/invariant"
	"repro/internal/obs"
)

// SoakConfig sizes one soak campaign.
type SoakConfig struct {
	// Seeds is the number of cluster invariant scenarios (each run twice
	// for the determinism check).
	Seeds int `json:"seeds"`
	// DiffSeeds is the number of differential scenarios (in-process mirror
	// vs networked stack over loopback+faultnet).
	DiffSeeds int `json:"diff_seeds"`
	// FarmSeeds is the number of farm-layer scenarios.
	FarmSeeds int `json:"farm_seeds"`
	// DESSeeds is the number of quantum-vs-DES engine differentials
	// (the per-quantum reference arm vs RunCluster, required
	// byte-identical).
	DESSeeds int `json:"des_seeds"`
	// BaseSeed offsets every seed range; 0 means 1.
	BaseSeed int64 `json:"base_seed,omitempty"`
	// Parallel is the worker-pool size; 0 or 1 runs sequentially. Every
	// job derives all randomness from its seed, so the report is identical
	// at any worker count.
	Parallel int `json:"parallel,omitempty"`
	// Wall bounds total wall-clock; jobs not started by the deadline are
	// marked skipped, never silently dropped. Zero means unbounded.
	Wall time.Duration `json:"-"`
	// Sabotage names a deliberate defect injected into cluster runs (see
	// SabotageStepTwoInvert); the checkers are expected to catch it.
	Sabotage string `json:"sabotage,omitempty"`
	// ShrinkMax caps candidate runs when shrinking a failing cluster seed
	// to a minimal reproducer. 0 disables shrinking.
	ShrinkMax int `json:"shrink_max,omitempty"`
	// DumpDir, when set, receives the JSONL trace
	// (cluster-seed<N>.jsonl) of every cluster seed whose invariant suite
	// fires, so the violating pass ships with the whole run's events.
	// Empty disables dumps.
	DumpDir string `json:"dump_dir,omitempty"`
}

// Seed ranges per job kind, decorrelated so `-seeds N -diff M` never
// replays the same spec under two kinds.
const (
	diffSeedBase = 10_000
	farmSeedBase = 20_000
	desSeedBase  = 30_000
)

// SeedResult is one job's outcome.
type SeedResult struct {
	Kind   string `json:"kind"` // "cluster", "diff", "farm" or "des"
	Seed   int64  `json:"seed"`
	Rounds int    `json:"rounds,omitempty"`
	Hash   string `json:"hash,omitempty"`
	// Violations from the invariant suite (plus the determinism check),
	// capped per run at invariant.DefaultMaxViolations.
	Violations []invariant.Violation `json:"violations,omitempty"`
	// Differential fields (kind "diff").
	Equivalent    bool         `json:"equivalent,omitempty"`
	FaultRounds   int          `json:"fault_rounds,omitempty"`
	InWindowDiffs int          `json:"in_window_diffs,omitempty"`
	Divergences   []Divergence `json:"divergences,omitempty"`
	// Shrunk is the minimal reproducer found for a failing cluster seed.
	Shrunk         *Spec `json:"shrunk,omitempty"`
	ShrinkAttempts int   `json:"shrink_attempts,omitempty"`
	// Trace is the path of the JSONL trace written for a violating
	// cluster seed (DumpDir set); TraceErr says why it could not be
	// written. Neither is a job error: the violations stand either way.
	Trace    string `json:"trace,omitempty"`
	TraceErr string `json:"trace_err,omitempty"`
	Skipped  bool   `json:"skipped,omitempty"`
	Err      string `json:"err,omitempty"`
}

// SoakReport is the full campaign outcome, assembled in deterministic
// job order regardless of worker count.
type SoakReport struct {
	Config      SoakConfig   `json:"config"`
	Results     []SeedResult `json:"results"`
	Violations  int          `json:"violations"`
	Divergences int          `json:"divergences"`
	Errors      int          `json:"errors"`
	Skipped     int          `json:"skipped"`
	OK          bool         `json:"ok"`
	ElapsedSec  float64      `json:"elapsed_sec"`
}

// Soak runs the campaign: cluster scenarios through the in-process
// mirror plus the full invariant suite (then once more digest-only,
// compared with the checked run as the DES differential compares its
// arms: every round's trace values, then its checker inputs),
// differential scenarios through both stacks, farm scenarios through the
// allocator contract checks (run twice, their pass histories compared),
// and DES scenarios through the quantum-vs-DES engine differential
// (RunCluster against its per-quantum reference). Cluster seeds whose
// suite fires are shrunk to minimal reproducers.
func Soak(cfg SoakConfig) *SoakReport {
	start := time.Now()
	base := cfg.BaseSeed
	if base == 0 {
		base = 1
	}
	var deadline time.Time
	if cfg.Wall > 0 {
		deadline = start.Add(cfg.Wall)
	}

	type job struct {
		kind string
		seed int64
	}
	var jobs []job
	for i := 0; i < cfg.Seeds; i++ {
		jobs = append(jobs, job{"cluster", base + int64(i)})
	}
	for i := 0; i < cfg.DiffSeeds; i++ {
		jobs = append(jobs, job{"diff", base + diffSeedBase + int64(i)})
	}
	for i := 0; i < cfg.FarmSeeds; i++ {
		jobs = append(jobs, job{"farm", base + farmSeedBase + int64(i)})
	}
	for i := 0; i < cfg.DESSeeds; i++ {
		jobs = append(jobs, job{"des", base + desSeedBase + int64(i)})
	}

	results := make([]SeedResult, len(jobs))
	run := func(j job) SeedResult {
		res := SeedResult{Kind: j.kind, Seed: j.seed}
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.Skipped = true
			return res
		}
		switch j.kind {
		case "cluster":
			runClusterJob(&res, cfg, runCluster)
		case "diff":
			runDiffJob(&res)
		case "farm":
			runFarmJob(&res, RunFarm)
		case "des":
			runDESJob(&res)
		}
		return res
	}

	engine.ForEachIndex(len(jobs), cfg.Parallel, func(i int) { results[i] = run(jobs[i]) })

	rep := &SoakReport{Config: cfg, Results: results}
	for _, r := range results {
		rep.Violations += len(r.Violations)
		rep.Divergences += len(r.Divergences)
		if r.Err != "" {
			rep.Errors++
		}
		if r.Skipped {
			rep.Skipped++
		}
	}
	rep.OK = rep.Violations == 0 && rep.Divergences == 0 && rep.Errors == 0
	rep.ElapsedSec = time.Since(start).Seconds()
	return rep
}

// runClusterJob checks one cluster seed through run (runCluster, which
// tests wrap to plant a fault): a checked run, then a digest-only replay.
// A failed replay, and each round diffClusterRuns reports between the
// two, is a determinism violation at that round's time. A seed with any
// violation gets its trace dumped; one whose suite fired is also shrunk,
// by a predicate that sees only the suite.
func runClusterJob(res *SeedResult, cfg SoakConfig, run func(spec Spec, opt Options, stepped, check bool) (*RunResult, error)) {
	spec := Generate(res.Seed)
	opt := Options{Sabotage: cfg.Sabotage}
	label := fmt.Sprintf("cluster seed %d", res.Seed)
	first, err := run(spec, opt, false, true)
	if err != nil {
		res.Err = fmt.Sprintf("%s: first run failed: %v", label, err)
		return
	}
	first.render()
	res.Rounds, res.Hash, res.Violations = first.Rounds, first.Hash, first.Violations
	if replay, err := run(spec, opt, false, false); err != nil {
		res.Violations = append(res.Violations, invariant.Violation{Checker: "determinism",
			Detail: fmt.Sprintf("%s: replay failed: %v", label, err)})
	} else {
		for _, d := range diffClusterRuns(spec, first, replay, "checked", "replay").Divergences {
			res.Violations = append(res.Violations, invariant.Violation{Checker: "determinism", At: first.Trace[d.Round].At,
				Detail: fmt.Sprintf("%s: round %d: %s", label, d.Round, d.Detail)})
		}
	}
	if len(res.Violations) == 0 {
		return
	}
	if cfg.DumpDir != "" {
		path, err := dumpTrace(spec, opt, cfg.DumpDir)
		if err != nil {
			res.TraceErr = err.Error()
		} else {
			res.Trace = path
		}
	}
	if len(first.Violations) == 0 || cfg.ShrinkMax <= 0 {
		return
	}
	fails := func(s Spec) bool {
		r, err := RunCluster(s, opt)
		return err == nil && len(r.Violations) > 0
	}
	shrunk, attempts := Shrink(spec, fails, cfg.ShrinkMax)
	res.Shrunk, res.ShrinkAttempts = &shrunk, attempts
}

// dumpTrace re-runs a violating cluster seed digest-only with a JSONL
// trace sink and returns the path of <dir>/cluster-seed<N>.jsonl. When
// the replay matched the checked run, so does this run, and the trace
// holds the checked run's every round, the violating passes included.
func dumpTrace(spec Spec, opt Options, dir string) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("cluster-seed%d.jsonl", spec.Seed))
	out, err := obs.OpenOutputs(io.Discard, nil, path, "", "")
	if err != nil {
		return "", err
	}
	defer out.Close()
	opt.Sink = out.Trace()
	if _, err := runCluster(spec, opt, false, false); err != nil {
		return "", err
	}
	if err := out.Finish(); err != nil {
		return "", err
	}
	return path, nil
}

func runDiffJob(res *SeedResult) {
	res.recordDiff(RunDifferential(Generate(res.Seed)))
}

// runDESJob runs one quantum-vs-DES engine differential. Any round
// whose rendered trace differs is a divergence — the event engine has
// no fault-window allowance. The job records the shipped arm's hash: the
// reference arm is digest-only.
func runDESJob(res *SeedResult) {
	d, err := RunDESDifferential(Generate(res.Seed), Options{})
	res.recordDiff(d, err)
	if err == nil {
		res.Hash = d.Variant.Hash
	}
}

// recordDiff fills res from one differential run, or its error.
func (res *SeedResult) recordDiff(d *DiffResult, err error) {
	if err != nil {
		res.Err = err.Error()
		return
	}
	res.Rounds = d.Spec.Rounds
	res.Hash = d.Base.Hash
	res.Violations = append(append([]invariant.Violation(nil), d.Base.Violations...), d.Variant.Violations...)
	res.Equivalent = d.Equivalent
	res.FaultRounds = d.FaultRounds
	res.InWindowDiffs = d.InWindowDiffs
	res.Divergences = d.Divergences
}

// runFarmJob checks one farm seed through run (RunFarm, which tests
// wrap to plant a fault) and runs it again: a failed replay, or one whose
// pass history differs, is a determinism violation naming the first
// differing line.
func runFarmJob(res *SeedResult, run func(FarmSpec) (*RunResult, error)) {
	spec := GenerateFarm(res.Seed)
	label := fmt.Sprintf("farm seed %d", res.Seed)
	first, err := run(spec)
	if err != nil {
		res.Err = fmt.Sprintf("%s: first run failed: %v", label, err)
		return
	}
	res.Rounds, res.Hash, res.Violations = first.Rounds, first.Hash, first.Violations
	replay, err := run(spec)
	var detail string
	switch {
	case err != nil:
		detail = fmt.Sprintf("replay failed: %v", err)
	case !bytes.Equal(first.fingerprint, replay.fingerprint):
		detail = "replay diverged: " + firstDiff(string(first.fingerprint), string(replay.fingerprint), "first", "replay")
	default:
		return
	}
	res.Violations = append(res.Violations, invariant.Violation{Checker: "determinism", Detail: label + ": " + detail})
}
