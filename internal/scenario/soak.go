package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

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
	// DumpDir, when set, receives a flight-recorder snapshot
	// (flight-cluster-seed<N>.json) for every cluster seed whose invariant
	// suite fires, so the violating pass ships with its recent event and
	// series history. Empty disables dumps.
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
	// FlightDump is the path of the flight-recorder snapshot written for a
	// violating cluster seed (DumpDir set).
	FlightDump string `json:"flight_dump,omitempty"`
	Skipped    bool   `json:"skipped,omitempty"`
	Err        string `json:"err,omitempty"`
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
// comparing every round's trace values and checker inputs with the
// checked run's; text is rendered only to report a mismatch),
// differential scenarios through both stacks, farm scenarios through the
// allocator contract checks, and DES scenarios through the quantum-vs-DES
// engine differential (RunCluster against its per-quantum reference,
// comparing per-round trace values).
// Failing cluster seeds are shrunk to minimal reproducers.
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
			runClusterJob(&res, cfg)
		case "diff":
			runDiffJob(&res)
		case "farm":
			runFarmJob(&res)
		case "des":
			runDESJob(&res)
		}
		return res
	}

	workers := cfg.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = run(jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

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

func runClusterJob(res *SeedResult, cfg SoakConfig) {
	spec := Generate(res.Seed)
	opt := Options{Sabotage: cfg.Sabotage}
	var rec *obs.FlightRecorder
	if cfg.DumpDir != "" {
		rec = obs.NewFlightRecorder(0, 0)
		opt.Sink = rec
	}
	// The first run is checked and feeds the recorder; the replay is
	// digest-only.
	first, det := checkReplay(fmt.Sprintf("cluster seed %d", res.Seed), func(check bool) (*RunResult, error) {
		o := opt
		if !check {
			o.Sink = nil
		}
		return runCluster(spec, o, false, check)
	})
	if first == nil {
		res.Err = det[0].Detail
		return
	}
	res.Rounds, res.Hash = first.Rounds, first.Hash
	res.Violations = append(first.Violations, det...)
	if len(res.Violations) > 0 && rec != nil {
		path := filepath.Join(cfg.DumpDir, fmt.Sprintf("flight-cluster-seed%d.json", res.Seed))
		if f, err := os.Create(path); err == nil {
			if err := rec.DumpJSON(f); err == nil {
				res.FlightDump = path
			}
			f.Close()
		}
	}
	if len(res.Violations) == 0 || cfg.ShrinkMax <= 0 {
		return
	}
	fails := func(s Spec) bool {
		r, err := RunCluster(s, opt)
		return err == nil && len(r.Violations) > 0
	}
	shrunk, attempts := Shrink(spec, fails, cfg.ShrinkMax)
	res.Shrunk, res.ShrinkAttempts = &shrunk, attempts
}

// checkReplay is a cluster job's determinism check. It gets the checked
// run from run(true) and renders it, then a digest-only replay from
// run(false), and returns the checked run (nil if it failed) with any
// violation: a failed run, a replay whose rounds differ from the checked
// run's (rendered only then, so the detail names the first differing
// line), or one that fed the checkers different inputs.
func checkReplay(label string, run func(check bool) (*RunResult, error)) (*RunResult, []invariant.Violation) {
	var runs []*RunResult
	det := invariant.CheckDeterminism(label, func() (string, error) {
		check := len(runs) == 0
		r, err := run(check)
		if err != nil {
			return "", err
		}
		if check {
			r.render()
		} else {
			r.renderLike(runs[0])
		}
		runs = append(runs, r)
		return r.Text, nil
	})
	if len(runs) == 0 {
		return nil, det
	}
	if len(det) == 0 {
		det = replayDivergence(label, runs[0], runs[1])
	}
	return runs[0], det
}

// replayDivergence reports a determinism violation when a replay whose
// text matched fed the checkers different inputs in some round.
func replayDivergence(label string, first, replay *RunResult) []invariant.Violation {
	r := firstDigestDiff(first, replay)
	if r < 0 {
		return nil
	}
	return []invariant.Violation{{Checker: "determinism",
		Detail: fmt.Sprintf("%s: replay fed the checkers different inputs in round %d", label, r)}}
}

func runDiffJob(res *SeedResult) {
	res.recordDiff(RunDifferential(Generate(res.Seed)))
}

// runDESJob runs one quantum-vs-DES engine differential. Any round
// whose rendered trace differs is a divergence — the event engine has
// no fault-window allowance.
func runDESJob(res *SeedResult) {
	res.recordDiff(RunDESDifferential(Generate(res.Seed), Options{}))
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

func runFarmJob(res *SeedResult) {
	spec := GenerateFarm(res.Seed)
	var last *RunResult
	det := invariant.CheckDeterminism(fmt.Sprintf("farm seed %d", res.Seed), func() (string, error) {
		r, err := RunFarm(spec)
		if err != nil {
			return "", err
		}
		last = r
		return r.Text, nil
	})
	if last == nil {
		res.Err = det[0].Detail
		return
	}
	res.Rounds, res.Hash = last.Rounds, last.Hash
	res.Violations = append(last.Violations, det...)
}
