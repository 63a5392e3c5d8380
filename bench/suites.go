package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// suiteSize is one experiments.RunAll pass.
type suiteSize struct {
	Scale workload.AppScale
	IDs   []string
}

var (
	paperSuite = suiteSize{Scale: 1, IDs: experiments.IDs()}
	serveFarm  = suiteSize{Scale: 16, IDs: []string{"serve-hotspot", "serve-diurnal-drop", "farm", "farm-powerfail"}}
)

// suiteWorld runs the same RunAll pass again and again: every pass
// builds its whole world from Options, so all must render identically.
// The warm-up pass is the set-up section.
type suiteWorld struct {
	size   suiteSize
	seed   int64
	tr     *tracer
	setup  string
	ops    []string
	failed []string
	// allocs sums Result.Allocs over the traced passes.
	allocs float64
}

func (size suiteSize) build(seed int64, tr *tracer) (instance, error) {
	w := &suiteWorld{size: size, seed: seed}
	_, digest, why := w.pass()
	if why != "" {
		return nil, fmt.Errorf("warm-up pass: %s", why)
	}
	w.setup, w.tr = digest, tr
	return w, nil
}

// experimentFamily groups experiment ids by the layer that dominates
// them.
func experimentFamily(id string) string {
	switch {
	case id == "ab-exec":
		return "montecarlo"
	case id == "cluster":
		return "cluster"
	case strings.HasPrefix(id, "farm"):
		return "farm"
	case strings.HasPrefix(id, "serve"):
		return "serve"
	}
	return "single"
}

// pass runs the suite once. A traced pass lays each experiment's own
// Result.WallSeconds end to end under the pass's span, named after the
// experiment's family: one worker runs them in that order.
func (w *suiteWorld) pass() (wall float64, digest, why string) {
	w.tr.setOp(len(w.ops))
	id := w.tr.begin("experiments.pass", 0)
	start := time.Now()
	results := experiments.RunAll(experiments.Options{Scale: w.size.Scale, Seed: w.seed}, w.size.IDs, 1)
	wall = time.Since(start).Seconds()
	w.tr.end(id)
	h := sha256.New()
	var cursor int64
	if w.tr != nil {
		cursor = w.tr.startOf(id)
	}
	for _, r := range results {
		if r.Err != nil && why == "" {
			why = fmt.Sprintf("%s: %v", r.ID, r.Err)
		}
		h.Write([]byte(r.Rendered))
		if w.tr != nil {
			_, cursor = w.tr.place("experiments."+experimentFamily(r.ID), id, cursor, seconds(r.WallSeconds))
			w.allocs += float64(r.Allocs)
		}
	}
	return wall, hex.EncodeToString(h.Sum(nil)), why
}

func (w *suiteWorld) step() (float64, error) {
	wall, digest, why := w.pass()
	w.ops = append(w.ops, digest)
	w.failed = append(w.failed, why)
	return wall, nil
}

func (w *suiteWorld) finish() (outcome, error) {
	out := outcome{Setup: w.setup, Ops: w.ops, Failed: w.failed, Work: float64(len(w.size.IDs))}
	if w.tr != nil && len(w.ops) > 0 {
		n := float64(len(w.ops))
		out.Layers = map[string]float64{"experiments.allocs_per_pass": w.allocs / n}
	}
	return out, nil
}

// soakSize is one scenario.Soak batch and how many distinct batches
// there are. What a batch costs depends on the scenarios it draws, by
// about a quarter either way, so runs that drew their own batches
// differed by their luck more than any bound allows. Every run walks the
// same ring of batches instead, in whole turns, and the seed picks where
// it starts: the same scenarios in another order.
type soakSize struct {
	Cluster, Farm, DES int
	Ring               int
}

var soakMix = soakSize{Cluster: 75, Farm: 30, DES: 15, Ring: 24}

// soakStride separates the batches' scenario-seed ranges.
const soakStride = 1000

// soakWorld runs soak batches round the ring; one fixed batch outside it
// is the warm-up and the set-up section. Differential (loopback)
// scenarios stay out: wall-clock timeouts do not repeat.
type soakWorld struct {
	size   soakSize
	seed   int64
	tr     *tracer
	setup  string
	ops    []string
	failed []string
	// kindS sums wall seconds by job kind over the traced batches, and
	// violations the invariant suite's findings.
	kindS      map[string]float64
	violations int
}

func (size soakSize) build(seed int64, tr *tracer) (instance, error) {
	w := &soakWorld{size: size, seed: seed, kindS: make(map[string]float64)}
	_, digest, why := w.batch(int64(size.Ring))
	if why != "" {
		return nil, fmt.Errorf("warm-up batch: %s", why)
	}
	w.setup, w.tr = digest, tr
	return w, nil
}

func (w *soakWorld) soak(slot int64, cfg scenario.SoakConfig) *scenario.SoakReport {
	cfg.BaseSeed = slot*soakStride + 1
	cfg.Parallel = 1
	return scenario.Soak(cfg)
}

// slotOf is the ring slot of timed batch k: seeds start 7 slots apart.
func (w *soakWorld) slotOf(k int) int64 {
	return pmod(w.seed*7+int64(k), int64(w.size.Ring))
}

// batch runs the batch in a ring slot. A traced batch makes one Soak
// call per job kind so each kind's wall time is its own; the jobs and
// their order are the same either way.
func (w *soakWorld) batch(slot int64) (wall float64, digest, why string) {
	calls := []scenario.SoakConfig{{Seeds: w.size.Cluster, FarmSeeds: w.size.Farm, DESSeeds: w.size.DES}}
	kinds := []string{""}
	if w.tr != nil {
		calls = []scenario.SoakConfig{{Seeds: w.size.Cluster}, {FarmSeeds: w.size.Farm}, {DESSeeds: w.size.DES}}
		kinds = []string{"cluster", "farm", "des"}
	}
	h := sha256.New()
	w.tr.setOp(len(w.ops))
	root := w.tr.begin("scenario.batch", 0)
	defer w.tr.end(root)
	for i, cfg := range calls {
		id := w.tr.begin("scenario."+kinds[i], root)
		start := time.Now()
		rep := w.soak(slot, cfg)
		s := time.Since(start).Seconds()
		w.tr.end(id)
		wall += s
		if w.tr != nil {
			w.kindS[kinds[i]] += s
			w.violations += rep.Violations
		}
		for _, r := range rep.Results {
			h.Write([]byte(r.Hash))
		}
		if !rep.OK && why == "" {
			why = fmt.Sprintf("%d violations, %d divergences, %d errors, %d skipped",
				rep.Violations, rep.Divergences, rep.Errors, rep.Skipped)
		}
	}
	return wall, hex.EncodeToString(h.Sum(nil)), why
}

func (w *soakWorld) step() (float64, error) {
	wall, digest, why := w.batch(w.slotOf(len(w.ops)))
	w.ops = append(w.ops, digest)
	w.failed = append(w.failed, why)
	return wall, nil
}

func (w *soakWorld) finish() (outcome, error) {
	out := outcome{Setup: w.setup, Ops: w.ops, Failed: w.failed, Work: float64(w.size.Cluster + w.size.Farm + w.size.DES)}
	if w.tr != nil && len(w.ops) > 0 {
		n := float64(len(w.ops))
		out.Layers = map[string]float64{
			"scenario.cluster_ms_per_scenario": w.kindS["cluster"] * 1e3 / n / float64(max(w.size.Cluster, 1)),
			"scenario.farm_ms_per_scenario":    w.kindS["farm"] * 1e3 / n / float64(max(w.size.Farm, 1)),
			"scenario.des_ms_per_scenario":     w.kindS["des"] * 1e3 / n / float64(max(w.size.DES, 1)),
			"invariant.violations":             float64(w.violations),
		}
	}
	return out, nil
}
