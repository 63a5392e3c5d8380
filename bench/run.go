package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/stats"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Correct is false when any operation failed or a digest check did.
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Digest covers the set-up section and the first DigestOps operations.
	Digest string `json:"digest"`
	// PeriodMissRatio is the share of the untraced world's operations that
	// overran the workload's Period or failed; 0 where there is no period.
	// It is 0 whenever the sandbox is quiet, so it is no end-to-end metric:
	// compare holds it to an absolute bound, as it does the failed share.
	PeriodMissRatio float64           `json:"period_miss_ratio"`
	Metrics         map[string]metric `json:"metrics"`

	spans []span
}

// timedOps runs operations in a closed loop — one in flight, the next
// starts when the last returns — until the time is up, at least minOps
// ran and the last cycle is whole (a world rebuilds between cycles, and
// a part of a cycle would skew the allocation per operation), then lets
// the world check what it produced.
func timedOps(inst instance, seconds float64, minOps, cycle int) (walls []float64, allocMB float64, out outcome, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(walls) < minOps || time.Now().Before(deadline) || len(walls)%max(cycle, 1) != 0 {
		wall, err := inst.step()
		if err != nil {
			inst.finish()
			return nil, 0, outcome{}, fmt.Errorf("operation %d: %w", len(walls), err)
		}
		walls = append(walls, wall)
	}
	runtime.ReadMemStats(&after)
	out, err = inst.finish()
	allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(len(walls))
	return walls, allocMB, out, err
}

// runWorkload is the pipeline's run of one workload. Its traced form
// reports every per-layer metric: the layer probes are added to what the
// traced world measured, and a metric that is not on the workload's path
// reads 0.
func runWorkload(w workloadDef, seed int64, seconds float64, traced bool, golden map[string]string) (runResult, error) {
	res, err := measure(w, seed, seconds, traced, golden)
	if err != nil || !traced {
		return res, err
	}
	if err := runProbes(&res); err != nil {
		return res, fmt.Errorf("layer probes: %w", err)
	}
	for _, def := range perLayer {
		if _, ok := res.Metrics[def.Name]; !ok {
			res.Metrics[def.Name] = metric{Unit: def.Unit}
		}
	}
	return res, nil
}

// setups is how many times a run builds the world: set-up time is the
// median, and equal digests across the builds are the run's determinism
// check.
const setups = 3

// measure builds the world setups times, measures for seconds with
// nothing attached, and checks the outputs. A traced run halves the time
// between an untraced and a traced world and reports the per-layer
// metrics instead.
func measure(w workloadDef, seed int64, seconds float64, traced bool, golden map[string]string) (runResult, error) {
	res := runResult{Workload: w.Name, Seed: seed, Traced: traced, Metrics: make(map[string]metric)}
	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}

	// Every build but the last is finished for its digest; the last is the
	// world that is measured. Where operations never repeat their inputs
	// (Cycle 0) the first build also runs the digest section, untimed, so
	// that every seed executes it twice and the two must digest alike.
	var inst instance
	var setupS []float64
	var first outcome
	for k := 0; ; k++ {
		start := time.Now()
		var err error
		if inst, err = w.Size.build(seed, nil); err != nil {
			return res, fmt.Errorf("set-up %d: %w", k, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if k == setups-1 {
			break
		}
		for i := 0; k == 0 && w.Cycle == 0 && i < w.DigestOps; i++ {
			if _, err := inst.step(); err != nil {
				inst.finish()
				return res, fmt.Errorf("set-up 0, operation %d: %w", i, err)
			}
		}
		out, err := inst.finish()
		if err != nil {
			return res, fmt.Errorf("set-up %d: %w", k, err)
		}
		if k == 0 {
			first = out
		} else if out.Setup != first.Setup {
			problem("set-up %d produced digest %.12s, set-up 0 %.12s: the build is not deterministic", k, out.Setup, first.Setup)
		}
	}

	if traced {
		seconds /= 2
	}
	minOps := max(w.DigestOps, w.Cycle+1)
	walls, allocMB, out, err := timedOps(inst, seconds, minOps, w.Cycle)
	if err != nil {
		return res, err
	}
	if out.Setup != first.Setup {
		problem("the measured world's set-up digest %.12s differs from the earlier builds' %.12s", out.Setup, first.Setup)
	}
	res.check(w, out, golden, problem)
	if d := digestOf(w, first); len(first.Ops) > 0 && d != res.Digest {
		problem("the digest section run twice digests to %.12s and %.12s: an operation is not deterministic", d, res.Digest)
	}
	if w.Period > 0 {
		missed := 0
		for i, wall := range walls {
			if wall > w.Period.Seconds() || out.Failed[i] != "" {
				missed++
			}
		}
		res.PeriodMissRatio = float64(missed) / float64(len(walls))
	}

	work := out.Work / stats.Mean(walls)
	if !traced {
		res.set("setup_s", median(setupS))
		res.set("op_ms_p50", median(walls)*1e3)
		res.set("work_per_s", work)
		res.set("alloc_mb_per_op", allocMB)
		res.Correct = len(res.Problems) == 0
		return res, nil
	}

	tr := newTracer()
	tinst, err := w.Size.build(seed, tr)
	if err != nil {
		return res, fmt.Errorf("traced set-up: %w", err)
	}
	twalls, _, tout, err := timedOps(tinst, seconds, minOps, w.Cycle)
	if err != nil {
		return res, err
	}
	if digestOf(w, tout) != res.Digest {
		problem("the traced world's outputs differ from the untraced world's: attaching a sink changed a decision")
	}
	res.check(w, tout, nil, problem)
	res.spans = tr.spans

	res.set("trace_overhead_ratio", median(twalls)/median(walls)-1)
	res.set("op_ms_p95", stats.Percentile(walls, 95)*1e3)
	res.set("op_ms_max", stats.Max(walls)*1e3)
	if w.Period > 0 {
		res.set("netcluster.period_miss_ratio", res.PeriodMissRatio)
	}
	res.spanMetrics(tr.spans, len(twalls))
	for name, v := range tout.Layers {
		res.set(name, v)
	}
	for name, perOp := range tout.Counts {
		res.set(name, stats.Mean(perOp[:min(len(perOp), w.DigestOps)]))
	}
	if round := res.Metrics["netcluster.round_ms"].Value; round > 0 {
		res.set("fvsst.step2_share_of_round", res.Metrics["fvsst.step2_ms"].Value/round)
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// set stores a metric the spec declares; anything else is a bug in the
// benchmark, not a result.
func (r *runResult) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range defs {
			if def.Name == name {
				r.Metrics[name] = metric{Value: v, Unit: def.Unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not in the spec")
}

// digestOf digests a world's set-up section and its first DigestOps
// operations, so the digest does not depend on how long the world ran.
func digestOf(w workloadDef, out outcome) string {
	h := sha256.New()
	h.Write([]byte(out.Setup))
	for _, d := range out.Ops[:min(len(out.Ops), w.DigestOps)] {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check counts the world's failed operations and holds its digests
// against each other and, where one is committed, the golden.
func (r *runResult) check(w workloadDef, out outcome, golden map[string]string, problem func(string, ...any)) {
	r.Attempted += len(out.Ops)
	for i, why := range out.Failed {
		if why != "" {
			r.Failed++
			if r.Failed <= 3 {
				problem("operation %d failed: %s", i, why)
			}
		}
	}
	for i, d := range out.Ops {
		if w.Cycle > 0 && i >= w.Cycle && d != out.Ops[i-w.Cycle] {
			problem("operation %d produced digest %.12s, operation %d %.12s, from identical inputs", i, d, i-w.Cycle, out.Ops[i-w.Cycle])
			break
		}
	}
	digest := digestOf(w, out)
	if r.Digest == "" {
		r.Digest = digest
	}
	if want, ok := golden[w.Name]; ok && want != digest {
		problem("digest %s does not match the golden %s", digest, want)
	}
}

// spanMetrics fills every per-layer metric named after a span: <span>_ms
// or _s is the span's mean total per operation, _self_ its self time,
// <span>_calls how many there were.
func (r *runResult) spanMetrics(spans []span, ops int) {
	total, self := spanTotals(spans)
	calls := make(map[string]float64)
	for _, s := range spans {
		calls[s.Name]++
	}
	n := float64(ops)
	for _, def := range perLayer {
		for _, form := range []struct {
			suffix string
			from   map[string]float64
			scale  float64
		}{
			{"_self_ms", self, 1e3}, {"_self_s", self, 1}, {"_calls", calls, 1}, {"_ms", total, 1e3}, {"_s", total, 1},
		} {
			if name, ok := strings.CutSuffix(def.Name, form.suffix); ok {
				if v, ok := form.from[name]; ok {
					r.set(def.Name, v*form.scale/n)
				}
				break
			}
		}
	}
}
