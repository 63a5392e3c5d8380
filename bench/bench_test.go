package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// toyWorkloads are the six workloads at sizes that run in milliseconds:
// the same code paths, checks and digests, nothing worth timing.
func toyWorkloads() []workloadDef {
	sizes := map[string]builder{
		"tree-1k":        roundSize{Agents: 20, CPUsPerAgent: 1, Fanout: 5, WattsPerCPU: 40, Warmup: 2},
		"flat-wide":      roundSize{Agents: 5, CPUsPerAgent: 4, Fanout: 0, WattsPerCPU: 60, Warmup: 2},
		"des-idle-fleet": fleetSize{Nodes: 50, Shards: 2, Horizon: 10},
		"paper-suite":    suiteSize{Scale: 0.05, IDs: []string{"table1", "worked"}},
		"serve-farm":     suiteSize{Scale: 0.05, IDs: []string{"farm"}},
		"soak-mix":       soakSize{Cluster: 1, Farm: 1, DES: 1, Ring: 2},
	}
	toys := make([]workloadDef, len(workloads))
	for i, w := range workloads {
		w.Size = sizes[w.Name]
		w.DigestOps = min(w.DigestOps, 3)
		w.Cycle = min(w.Cycle, 2) // the toy fleet has two shards, the toy ring two batches
		toys[i] = w
	}
	return toys
}

func TestToyWorkloadsRunCheckAndRepeat(t *testing.T) {
	for _, w := range toyWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			var digests [2]string
			for k := range digests {
				res, err := measure(w, 7, 0, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run %d: correct=%v attempted=%d failed=%d problems=%v", k, res.Correct, res.Attempted, res.Failed, res.Problems)
				}
				if len(res.Metrics) != len(endToEnd) {
					t.Errorf("run %d reports %d metrics, want the %d end-to-end ones", k, len(res.Metrics), len(endToEnd))
				}
				for _, def := range endToEnd {
					if m, ok := res.Metrics[def.Name]; !ok || m.Value <= 0 || m.Unit != def.Unit {
						t.Errorf("run %d: %s = %+v, want a positive value in %s", k, def.Name, m, def.Unit)
					}
				}
				digests[k] = res.Digest
			}
			if digests[0] != digests[1] {
				t.Errorf("two runs of seed 7 digest to %s and %s", digests[0], digests[1])
			}
			other, err := measure(w, 8, 0, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if w.Name != "paper-suite" && other.Digest == digests[0] {
				// table1 and worked, the toy paper suite, take no seed.
				t.Errorf("seeds 7 and 8 digest alike: the seed does not reach the inputs")
			}
		})
	}
}

func TestToyWorkloadsTraced(t *testing.T) {
	// on is a metric each workload's traced run must have filled.
	on := map[string]string{
		"tree-1k":        "netcluster.demand_phase_ms",
		"flat-wide":      "fvsst.step2_ms",
		"des-idle-fleet": "machine.advance_calls",
		"paper-suite":    "experiments.single_ms",
		"serve-farm":     "experiments.farm_ms",
		"soak-mix":       "scenario.des_ms_per_scenario",
	}
	for _, w := range toyWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			res, err := measure(w, 7, 0, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("problems: %v", res.Problems)
			}
			if res.Metrics[on[w.Name]].Value <= 0 {
				t.Errorf("%s = %v, want > 0", on[w.Name], res.Metrics[on[w.Name]].Value)
			}
			if len(res.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// On the flat fleet the round's children — poll, schedule, actuate — and
// its self time must account for the round.
func TestFlatRoundChildrenSumToRound(t *testing.T) {
	w := toyWorkloads()[1]
	res, err := measure(w, 1, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := func(name string) float64 { return res.Metrics[name].Value }
	sum := v("netcluster.poll_ms") + v("cluster.schedule_ms") + v("netcluster.actuate_ms") + v("netcluster.round_self_ms")
	if round := v("netcluster.round_ms"); round <= 0 || math.Abs(sum-round) > 1e-6*round {
		t.Errorf("poll + schedule + actuate + self = %g ms, round = %g ms", sum, round)
	}
}

// counterSize builds worlds whose operation i digests to i plus *drift,
// which grows by *by with every operation of every world.
type counterSize struct{ drift, by *int }

type counterWorld struct {
	counterSize
	ops []string
}

func (s counterSize) build(int64, *tracer) (instance, error) {
	return &counterWorld{counterSize: s}, nil
}

func (w *counterWorld) step() (float64, error) {
	w.ops = append(w.ops, strconv.Itoa(len(w.ops)+*w.drift))
	*w.drift += *w.by
	return 1e-3, nil
}

func (w *counterWorld) finish() (outcome, error) {
	return outcome{Setup: "s", Ops: w.ops, Failed: make([]string, len(w.ops)), Work: 1}, nil
}

// Without a golden and without a cycle, the digest section is executed on
// two builds and an operation that does not repeat fails the run.
func TestDigestSectionRunsTwice(t *testing.T) {
	var drift, by int
	w := workloadDef{Name: "counter", DigestOps: 4, Size: counterSize{&drift, &by}}
	res, err := measure(w, 7, 0, false, nil)
	if err != nil || !res.Correct || res.Attempted != 4 {
		t.Fatalf("repeating operations: correct=%v attempted=%d problems=%v err=%v", res.Correct, res.Attempted, res.Problems, err)
	}
	by = 1
	res, err = measure(w, 7, 0, false, nil)
	if err != nil || res.Correct || !strings.Contains(strings.Join(res.Problems, "\n"), "run twice") {
		t.Fatalf("drifting operations: correct=%v problems=%v err=%v", res.Correct, res.Problems, err)
	}
}

func TestPeriodMissRatio(t *testing.T) {
	var drift, by int
	w := workloadDef{Name: "counter", DigestOps: 4, Size: counterSize{&drift, &by}, Period: 2 * time.Millisecond}
	if res, err := measure(w, 7, 0, false, nil); err != nil || res.PeriodMissRatio != 0 {
		t.Errorf("1 ms operations against a 2 ms period: miss ratio %g, err %v", res.PeriodMissRatio, err)
	}
	w.Period = time.Microsecond
	if res, err := measure(w, 7, 0, false, nil); err != nil || res.PeriodMissRatio != 1 {
		t.Errorf("1 ms operations against a 1 us period: miss ratio %g, err %v", res.PeriodMissRatio, err)
	}
}

func TestLayerProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("the probes run fixed iteration counts")
	}
	// The pipeline's traced run: the traced world's numbers, the probes,
	// and 0 for what is not on the workload's path.
	res, err := runWorkload(toyWorkloads()[0], 7, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("the traced run reports %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{
		"machine.step_ns", "machine.ff_idle_quantum_ns", "engine.dispatch_ns", "fvsst.schedule_ns",
		"cluster.core_schedule_us_2000", "cluster.core_schedule_scaling", "wire.poll_cycle_ns_bin1",
		"wire.report_bytes_json", "farm.allocate_ns_12", "farm.divide_us_20x50", "serve.quantum_ns",
		"obs.schedule_jsonl_ns", "optimal.dp_us_16x16",
	} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

func TestWrongGoldenFailsRun(t *testing.T) {
	toy := toyWorkloads()[:1]
	o := runOpts{Seed: 1, Count: 1}
	file, err := runAll(toy, o, nil, io.Discard)
	if err != nil {
		t.Fatalf("without a golden: %v", err)
	}
	right := map[string]string{toy[0].Name: file.Results[0].Digest}
	if _, err := runAll(toy, o, right, io.Discard); err != nil {
		t.Fatalf("with the right golden: %v", err)
	}
	wrong := map[string]string{toy[0].Name: strings.Repeat("0", 64)}
	var out bytes.Buffer
	if _, err := runAll(toy, o, wrong, &out); err == nil {
		t.Fatal("a wrong golden did not fail the run")
	}
	if !strings.Contains(out.String(), "does not match the golden") {
		t.Errorf("the output does not say why:\n%s", out.String())
	}
}

func TestCommittedGoldenCoversEveryWorkload(t *testing.T) {
	golden, err := goldenFor(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(golden[w.Name]) != 64 {
			t.Errorf("golden/seed1.json has no digest for %s", w.Name)
		}
	}
	if g, err := goldenFor(7); err != nil || g != nil {
		t.Errorf("goldenFor(7) = %v, %v; only seed 1 is committed", g, err)
	}
}

// BENCHMARK.json is the pipeline's copy of the spec: same workloads, same
// metrics, within the pipeline's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the pipeline's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(file.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the spec, 2 to 8 allowed", n, len(workloads))
	}
	for i, w := range file.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the spec, or their reasons differ", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, c := range []struct {
		kind      string
		file, own []metricDef
		limit     int
	}{{"end_to_end", file.EndToEnd, endToEnd, 16}, {"per_layer", file.PerLayer, perLayer, 128}} {
		if len(c.file) != len(c.own) || len(c.own) < 1 || len(c.own) > c.limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the spec, 1 to %d allowed", c.kind, len(c.file), len(c.own), c.limit)
		}
		for i, def := range c.own {
			checkName(def.Name)
			if c.file[i] != def {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the spec %+v", c.kind, i, c.file[i], def)
			}
			if !unit.MatchString(def.Unit) {
				t.Errorf("%s: unit %q is outside the pipeline's alphabet", def.Name, def.Unit)
			}
			if def.Better != "lower" && def.Better != "higher" {
				t.Errorf("%s: better is %q", def.Name, def.Better)
			}
			if bounded := c.kind == "end_to_end"; bounded != (def.Bound > 0) || def.Bound > 0.25 {
				t.Errorf("%s: bound %g; end-to-end metrics carry one of at most 0.25, per-layer metrics none", def.Name, def.Bound)
			}
		}
	}
	if endToEnd[0] != (metricDef{"setup_s", "s", "lower", endToEnd[0].Bound}) {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; it is %+v", endToEnd[0])
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v", file.Paths)
	}
}

func TestSelfTime(t *testing.T) {
	// round 0..100 with children 10..30 and 20..50 (overlapping: they
	// cover 10..50 once) and 70..90; the last has a child 75..80.
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 90},
		{ID: 5, Parent: 4, Name: "d", Start: 75, End: 80},
	}
	want := map[int]int64{1: 40, 2: 20, 3: 30, 4: 15, 5: 5}
	for id, got := range selfTimes(spans) {
		if got != want[id] {
			t.Errorf("self time of span %d = %d, want %d", id, got, want[id])
		}
	}
	total, self := spanTotals(append(spans, span{ID: 6, Name: "round", Start: 100, End: 150}))
	if total["round"] != 150e-9 || self["round"] != 90e-9 {
		t.Errorf("round totals %g s, self %g s; want 150 ns and 90 ns", total["round"], self["round"])
	}
}

func TestSpread(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if got := spread([]float64{4, 1, 2}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("spread of three = %g, want 1.5", got)
	}
	if median(v) != 5.5 {
		t.Errorf("median = %g, want 5.5", median(v))
	}
}

// fileOf makes a one-workload result file whose op_ms_p50 runs are vals.
func fileOf(digest string, failed int, missed float64, vals ...float64) benchFile {
	f := benchFile{Header: header{Seed: 1, Count: len(vals)}}
	for _, v := range vals {
		f.Results = append(f.Results, runResult{
			Workload: "tree-1k", Seed: 1, Correct: failed == 0, Attempted: 100, Failed: failed, Digest: digest,
			PeriodMissRatio: missed,
			Metrics: map[string]metric{
				"setup_s": {1, "s"}, "op_ms_p50": {v, "ms"},
				"work_per_s": {1000 / v, "1/s"}, "alloc_mb_per_op": {5, "MB"},
			},
		})
	}
	return f
}

func TestCompare(t *testing.T) {
	base := fileOf("d", 0, 0.005, 20, 20.2, 19.8, 20.1, 19.9)
	for _, c := range []struct {
		name    string
		cur     benchFile
		problem string // "" for a passing compare
		row     string // a verdict the table must show for op_ms_p50
	}{
		{"same", fileOf("d", 0, 0.005, 20.1, 19.9, 20, 20.3, 19.7), "", verdictOK},
		{"within the bound", fileOf("d", 0, 0.015, 21, 21.2, 20.8, 21.1, 20.9), "", verdictOK},
		{"regressed", fileOf("d", 0, 0, 26, 26.2, 25.8, 26.1, 25.9), "op_ms_p50 is 30.0% worse", verdictRegressed},
		{"noisy", fileOf("d", 0, 0, 24, 34, 14, 29, 19), "", verdictUnresolved},
		{"noisy but every run better", fileOf("d", 0, 0, 12, 19, 7, 16, 9), "", verdictBetter},
		{"noisy and every run worse", fileOf("d", 0, 0, 30, 45, 27, 38, 33), "op_ms_p50 is 65.0% worse", verdictRegressed},
		{"digest", fileOf("e", 0, 0, 20, 20.2, 19.8, 20.1, 19.9), "the outputs changed", verdictOK},
		{"failures", fileOf("d", 3, 0, 20, 20.2, 19.8, 20.1, 19.9), "fail_ratio rose from 0 to 0.03", verdictOK},
		{"missed periods", fileOf("d", 0, 0.02, 20, 20.2, 19.8, 20.1, 19.9), "period_miss_ratio rose from 0.005 to 0.02", verdictOK},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			problems := strings.Join(compareFiles(base, c.cur, &out), "\n")
			if c.problem == "" && problems != "" {
				t.Errorf("unexpected failures: %s", problems)
			}
			if !strings.Contains(problems, c.problem) {
				t.Errorf("failures %q do not mention %q", problems, c.problem)
			}
			var row string
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.Contains(line, " op_ms_p50 ") {
					row = line
				}
			}
			if !strings.HasSuffix(row, "  "+c.row) || !strings.Contains(row, "of base") {
				t.Errorf("op_ms_p50 row %q, want verdict %q and the ratio's base", row, c.row)
			}
		})
	}
	// The share of missed periods has an absolute bound and spread.
	for _, c := range []struct {
		base, cur []float64
		want      string
	}{
		{[]float64{0, 0.004, 0.008}, []float64{0.01, 0.012, 0.014}, verdictOK},
		{[]float64{0, 0.004, 0.008}, []float64{0.016, 0.02, 0.024}, verdictRegressed},
		{[]float64{0, 0.004, 0.1}, []float64{0.02, 0.03, 0.04}, verdictUnresolved},
		{[]float64{0, 0.004, 0.1}, []float64{0.12, 0.2, 0.3}, verdictRegressed},
	} {
		if got := judgePeriodMisses(c.base, c.cur); got != c.want {
			t.Errorf("judgePeriodMisses(%v, %v) = %q, want %q", c.base, c.cur, got, c.want)
		}
	}
	// A file that lacks a workload of the base does not compare clean.
	problems := strings.Join(compareFiles(base, benchFile{Header: base.Header}, io.Discard), "\n")
	if !strings.Contains(problems, "tree-1k: base has 5 runs") {
		t.Errorf("a new file without tree-1k: failures %q", problems)
	}
}
