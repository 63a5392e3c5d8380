package experiments

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// OptGapConfig sizes a greedy-vs-optimal gap measurement campaign.
type OptGapConfig struct {
	// Seeds is the number of scenario.Generate seeds to measure.
	Seeds int `json:"seeds"`
	// BaseSeed offsets the seed range; 0 means 1.
	BaseSeed int64 `json:"base_seed,omitempty"`
	// Parallel is the worker-pool size; 0 or 1 runs sequentially. Results
	// aggregate in seed order, so the report is identical at any width.
	Parallel int `json:"parallel,omitempty"`
}

// OptGapSeed is one seed's measurement.
type OptGapSeed struct {
	Seed       int64                `json:"seed"`
	Rounds     int                  `json:"rounds,omitempty"`
	Gap        scenario.OptGapStats `json:"gap"`
	Violations int                  `json:"violations,omitempty"`
	Err        string               `json:"err,omitempty"`
}

// OptGapReport is the campaign outcome: per-seed rows in seed order plus
// the corpus-wide aggregate. Total.WorstGap over a large corpus is the
// empirical bound invariant.DefaultGap is calibrated against.
type OptGapReport struct {
	Config     OptGapConfig         `json:"config"`
	Seeds      []OptGapSeed         `json:"seeds"`
	Total      scenario.OptGapStats `json:"total"`
	Violations int                  `json:"violations"`
	Errors     int                  `json:"errors"`
}

// OptGap runs every seed's scenario under Options.MeasureGap: each
// scheduling pass is re-solved exactly (internal/optimal) and the loss
// of the greedy assignment that actually ran is compared against the
// true optimum. Every job derives all randomness from its seed, so the
// report is deterministic at any worker count. A campaign of fewer than
// one seed is an error: it would measure nothing and pass any gate.
func OptGap(cfg OptGapConfig) (*OptGapReport, error) {
	if cfg.Seeds < 1 {
		return nil, fmt.Errorf("experiments: optgap needs at least one seed, got %d", cfg.Seeds)
	}
	if cfg.BaseSeed == 0 {
		cfg.BaseSeed = 1
	}
	rows := make([]OptGapSeed, cfg.Seeds)
	engine.ForEachIndex(len(rows), cfg.Parallel, func(i int) {
		seed := cfg.BaseSeed + int64(i)
		row := OptGapSeed{Seed: seed}
		r, err := scenario.RunCluster(scenario.Generate(seed), scenario.Options{MeasureGap: true})
		if err != nil {
			row.Err = err.Error()
		} else {
			row.Rounds = r.Rounds
			row.Violations = len(r.Violations)
			if r.Gap != nil {
				row.Gap = *r.Gap
			}
		}
		rows[i] = row
	})

	rep := &OptGapReport{Config: cfg, Seeds: rows}
	for _, row := range rows {
		if row.Err != "" {
			rep.Errors++
			continue
		}
		rep.Violations += row.Violations
		rep.Total.Merge(row.Gap)
	}
	return rep, nil
}

// WriteText renders the gap table: one fixed-format row per seed plus
// the corpus aggregate, stable to the byte across runs and worker
// counts (the CI smoke job compares two renderings verbatim).
func (r *OptGapReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "optgap: %d seed(s) from %d\n", r.Config.Seeds, r.Config.BaseSeed)
	fmt.Fprintf(w, "%-8s %6s %5s %7s %14s %14s %14s %8s\n",
		"seed", "passes", "skip", "nonopt", "worst-gap", "greedy-loss", "optimal-loss", "e-feas")
	for _, row := range r.Seeds {
		if row.Err != "" {
			fmt.Fprintf(w, "%-8d ERROR %s\n", row.Seed, row.Err)
			continue
		}
		g := row.Gap
		fmt.Fprintf(w, "%-8d %6d %5d %7d %14.9g %14.9g %14.9g %8d\n",
			row.Seed, g.Passes, g.Skipped, g.NonOptimal, g.WorstGap, g.GreedyLoss, g.OptimalLoss, g.EnergyFeasible)
		if row.Violations > 0 {
			fmt.Fprintf(w, "%-8d %d invariant violation(s)\n", row.Seed, row.Violations)
		}
	}
	t := r.Total
	fmt.Fprintf(w, "total: %d passes (%d skipped), %d non-optimal, worst gap %.9g\n",
		t.Passes, t.Skipped, t.NonOptimal, t.WorstGap)
	if t.Passes > 0 {
		fmt.Fprintf(w, "total: greedy loss %.9g vs optimal %.9g (mean excess %.9g/pass), energy-optimal feasible %d/%d\n",
			t.GreedyLoss, t.OptimalLoss, (t.GreedyLoss-t.OptimalLoss)/float64(t.Passes), t.EnergyFeasible, t.Passes)
	}
	if t.Broken > 0 {
		fmt.Fprintf(w, "total: exact comparator failed on %d pass(es), first: %s\n", t.Broken, t.BrokenDetail)
	}
	if r.Errors > 0 || r.Violations > 0 {
		fmt.Fprintf(w, "total: %d error(s), %d violation(s)\n", r.Errors, r.Violations)
	}
}
