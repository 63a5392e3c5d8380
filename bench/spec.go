package main

import "time"

// metricDef names one metric the benchmark reports. The same list is
// written out in BENCHMARK.json; TestBenchmarkJSONMatchesSpec keeps the
// two from drifting apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, measured with no sink, no
// metrics registry and no spans. Every workload reports every one of
// them: an "operation" is the workload's unit of user-visible work (one
// scheduling round, one simulated shard hour, one RunAll pass, one soak
// batch) and "work" its natural size (CPUs scheduled, simulated
// node-seconds, experiments, scenarios). A bound is the share of the
// parent's median by which the metric may worsen; README.md says how the
// sandbox's run-to-run spread set them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.08},
}

// perLayer is the traced run's output: self time and counts at each
// module boundary, then the fixed micro-world probes. A metric that is
// not on a workload's path reads 0 there.
var perLayer = []metricDef{
	// Every workload.
	{"trace_overhead_ratio", "ratio", "lower", 0},
	// The untraced world's tails: reported, never gated.
	{"op_ms_p95", "ms", "lower", 0},
	{"op_ms_max", "ms", "lower", 0},
	// tree-1k and flat-wide: the round's own accounting.
	{"netcluster.period_miss_ratio", "ratio", "lower", 0},
	{"cluster.budget_fill", "ratio", "higher", 0},
	{"netcluster.round_ms", "ms", "lower", 0},
	{"netcluster.round_self_ms", "ms", "lower", 0},
	{"netcluster.retries", "count", "lower", 0},
	{"netcluster.timeouts", "count", "lower", 0},
	{"netcluster.degraded_nodes", "count", "lower", 0},
	{"wire.encode_ms_per_round", "ms", "lower", 0},
	{"wire.decode_ms_per_round", "ms", "lower", 0},
	{"wire.bytes_per_round", "count", "lower", 0},
	{"wire.delta_report_ratio", "ratio", "higher", 0},
	// tree-1k: the root's demand/divide/grant phases.
	{"netcluster.demand_phase_ms", "ms", "lower", 0},
	{"netcluster.grant_phase_ms", "ms", "lower", 0},
	{"farm.divide_ms", "ms", "lower", 0},
	{"netcluster.rpc_demand_ms_p50", "ms", "lower", 0},
	{"netcluster.rpc_demand_queue_ms_p50", "ms", "lower", 0},
	{"netcluster.rpc_demand_wire_ms_p50", "ms", "lower", 0},
	{"netcluster.rpc_grant_ms_p50", "ms", "lower", 0},
	// flat-wide: poll, the core pass and its Figure-3 steps, actuate.
	{"netcluster.poll_ms", "ms", "lower", 0},
	{"netcluster.actuate_ms", "ms", "lower", 0},
	{"cluster.schedule_ms", "ms", "lower", 0},
	{"cluster.schedule_self_ms", "ms", "lower", 0},
	{"perfmodel.gridfill_ms", "ms", "lower", 0},
	{"fvsst.step1_ms", "ms", "lower", 0},
	{"fvsst.step2_ms", "ms", "lower", 0},
	{"fvsst.step3_ms", "ms", "lower", 0},
	{"fvsst.step2_share_of_round", "ratio", "lower", 0},
	{"fvsst.step2_demotions_per_round", "count", "lower", 0},
	{"netcluster.rpc_counters_ms_p50", "ms", "lower", 0},
	{"netcluster.rpc_counters_apply_ms_p50", "ms", "lower", 0},
	{"netcluster.rpc_actuate_ms_p50", "ms", "lower", 0},
	// des-idle-fleet: the handler is benchmark code, so the split between
	// timeline dispatch and machine fast-forward is visible from outside.
	{"machine.build_s", "s", "lower", 0},
	{"engine.dispatch_self_s", "s", "lower", 0},
	{"engine.events", "count", "lower", 0},
	{"machine.advance_s", "s", "lower", 0},
	{"machine.advance_calls", "count", "lower", 0},
	{"machine.sweep_s", "s", "lower", 0},
	// paper-suite and serve-farm: Result.WallSeconds grouped by family.
	{"experiments.single_ms", "ms", "lower", 0},
	{"experiments.montecarlo_ms", "ms", "lower", 0},
	{"experiments.cluster_ms", "ms", "lower", 0},
	{"experiments.farm_ms", "ms", "lower", 0},
	{"experiments.serve_ms", "ms", "lower", 0},
	{"experiments.allocs_per_pass", "count", "lower", 0},
	// soak-mix: one Soak call per job kind.
	{"scenario.cluster_ms_per_scenario", "ms", "lower", 0},
	{"scenario.farm_ms_per_scenario", "ms", "lower", 0},
	{"scenario.des_ms_per_scenario", "ms", "lower", 0},
	{"invariant.violations", "count", "lower", 0},
	// Layer probes: fixed seeded micro-worlds, fixed iteration counts.
	{"machine.step_ns", "ns", "lower", 0},
	{"machine.step_allocs", "count", "lower", 0},
	{"machine.step_idle_quantum_ns", "ns", "lower", 0},
	{"machine.ff_idle_quantum_ns", "ns", "lower", 0},
	{"engine.dispatch_ns", "ns", "lower", 0},
	{"engine.dispatch_allocs", "count", "lower", 0},
	{"fvsst.schedule_ns", "ns", "lower", 0},
	{"fvsst.schedule_allocs", "count", "lower", 0},
	{"cluster.core_schedule_us_64", "us", "lower", 0},
	{"cluster.core_schedule_us_2000", "us", "lower", 0},
	{"cluster.core_schedule_scaling", "ratio", "lower", 0},
	{"cluster.demand_curve_us_50", "us", "lower", 0},
	{"wire.poll_cycle_ns_bin1", "ns", "lower", 0},
	{"wire.poll_cycle_allocs_bin1", "count", "lower", 0},
	{"wire.poll_cycle_ns_json", "ns", "lower", 0},
	{"wire.report_bytes_bin1", "count", "lower", 0},
	{"wire.report_bytes_json", "count", "lower", 0},
	{"farm.allocate_ns_12", "ns", "lower", 0},
	{"farm.allocate_allocs_12", "count", "lower", 0},
	{"farm.divide_us_20x50", "us", "lower", 0},
	{"serve.quantum_ns", "ns", "lower", 0},
	{"serve.quantum_allocs", "count", "lower", 0},
	{"serve.offer_ns", "ns", "lower", 0},
	{"serve.summarize_us", "us", "lower", 0},
	{"obs.schedule_jsonl_ns", "ns", "lower", 0},
	{"optimal.dp_us_16x16", "us", "lower", 0},
	{"optimal.greedy_ns_16x16", "ns", "lower", 0},
}

// workloadDef is one named set of inputs.
type workloadDef struct {
	Name string
	Why  string
	// WorkUnit names what work_per_s counts on this workload.
	WorkUnit string
	// DigestOps timed operations are folded into the run's digest, so a
	// run executes at least that many.
	DigestOps int
	// Cycle, where positive, says operation i has the inputs of operation
	// i-Cycle, so their outputs must be equal; a run executes more than
	// Cycle operations to see it.
	Cycle int
	// Period, where an operation has a deadline, is that deadline.
	Period time.Duration
	// Size fixes the world's shape and builds it. The tests swap in toy
	// sizes; the output header records it.
	Size builder
}

// builder makes a fresh world from the seed, including its warm-up; a
// non-nil tracer also attaches the benchmark's sink, metrics registry
// and span recorder.
type builder interface {
	build(seed int64, tr *tracer) (instance, error)
}

// workloads are the six named runs. Fleet sizes are fixed; how many
// operations a run measures follows from its --seconds.
var workloads = []workloadDef{
	{
		Name:     "tree-1k",
		Why:      "Transport-bound: 1000 one-CPU agents, 20 relays, one root (bin1 over pipes); RPCs, codec, goroutine-per-node phases and farm divide do the work. 20 warm-up rounds, then an operation is one round.",
		WorkUnit: "CPUs scheduled", DigestOps: 50, Period: periodT,
		Size: tree1k,
	},
	{
		Name:     "flat-wide",
		Why:      "Pass-bound: 125 agents x 16 CPUs under one flat coordinator, so cluster.Core.Schedule (Step 2) dominates; a Step-2 change shows here, not on tree-1k. 20 warm-up rounds, an operation is one round.",
		WorkUnit: "CPUs scheduled", DigestOps: 25, Period: periodT,
		Size: flatWide,
	},
	{
		Name:     "des-idle-fleet",
		Why:      "Engine-bound: 10000 quiet 4-CPU nodes x 3600 simulated s; an operation is one 1000-node shard on its own timeline. Uses machine through AdvanceTo/replay, not Step.",
		WorkUnit: "simulated node-seconds", DigestOps: idleFleet.Shards, Cycle: idleFleet.Shards,
		Size: idleFleet,
	},
	{
		Name:     "paper-suite",
		Why:      "What a researcher runs: every experiment at scale 1, an operation is one RunAll pass (1 warm-up pass). Busy-quantum Machine.Step + fvsst.Scheduler + rendering, so a tax on Step shows here.",
		WorkUnit: "experiments", DigestOps: 1, Cycle: 1,
		Size: paperSuite,
	},
	{
		Name:     "serve-farm",
		Why:      "Station- and allocator-bound: serve.Station, farm.Allocator and the UPS governor at scale 16; an operation is one pass of 4 experiments. Under 15% of paper-suite, so they need their own run.",
		WorkUnit: "experiments", DigestOps: 1, Cycle: 1,
		Size: serveFarm,
	},
	{
		Name:     "soak-mix",
		Why:      "Soak scenarios/s: an operation is one batch of 75 cluster + 30 farm + 15 DES short faulted scenarios under the invariant suite, from a ring of 24. Set-up, checkers and hashing dominate.",
		WorkUnit: "scenarios", DigestOps: 3, Cycle: soakMix.Ring,
		Size: soakMix,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// instance is one built world.
type instance interface {
	// step runs the next operation and returns its wall time.
	step() (wall float64, err error)
	// finish checks the outputs of everything run since build and
	// releases the world.
	finish() (outcome, error)
}

// outcome is what a world produced, checked after the clock stopped.
type outcome struct {
	// Setup digests the warm-up section's outputs, Ops each operation's.
	Setup string
	Ops   []string
	// Failed holds, per operation, "" or why it counts as failed.
	Failed []string
	// Work is the work units one operation completes.
	Work float64
	// Layers are per-layer numbers read from the program's own events
	// (traced worlds only).
	Layers map[string]float64
	// Counts are per-operation counts that the run averages over its
	// digest section alone, so that they repeat exactly however long
	// the run measured.
	Counts map[string][]float64
}
