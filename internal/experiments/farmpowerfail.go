package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/farm"
	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

// The farm power-fail study scales the paper's §2 motivating scenario —
// "a power supply fails and the computers must temporarily reduce their
// consumption" — from one machine room to a three-cluster farm on a UPS:
// the grid feed fails at t=1 s and the farm runs from a battery whose
// runway governor shrinks the global budget as it drains. Three policies
// divide that shrinking budget:
//
//   - hierarchical: the farm.Allocator (the paper's Step-2 least-loss
//     greedy lifted one level) reallocating across clusters by marginal
//     predicted loss, with expiring leases;
//   - equal-split: the same lease machinery but every reachable cluster
//     gets an equal share;
//   - uniform: every processor in the farm pinned at the highest common
//     frequency fitting the budget (the classic response), with an
//     instantly-reacting, partition-immune controller — a generous
//     baseline.
//
// Mid-run the "data" cluster partitions away from the allocator for two
// seconds: its lease expires, it falls to its floor on its own, and the
// allocator keeps charging first the stale lease and then the floor, so
// Σ(leased) ≤ budget must hold right through the partition.

const (
	farmGridW     = 6720.0 // 48 processors × the 140 W table maximum
	farmUPSJoules = 12000.0
	farmRunwaySec = 5.0
	farmFailAt    = 1.0
	farmPartStart = 2.5
	farmPartEnd   = 4.5
	farmDuration  = 5.0
	farmLeaseTTL  = 0.3
	farmSafety    = farmLeaseTTL / farmRunwaySec
	farmPeriods   = 10 // allocator pass every 10 dispatch quanta = 0.1 s
	// farmRunwayGrace is how long after the failover the runway metric
	// waits for the reallocation and RTT-delayed actuations to land.
	farmRunwayGrace = 0.2
)

// farmClusterSpec shapes one cluster: 4 nodes, busyCPUs of each node's 4
// processors running an endless copy of prog.
type farmClusterSpec struct {
	name     string
	prog     workload.Program
	busyCPUs int
	seedOff  int64
}

// farmSpecs is the fixed scenario: a CPU-bound compute cluster that wants
// all the power, a memory-bound data cluster that barely profits from
// frequency, and a mostly-idle web cluster.
func farmSpecs() []farmClusterSpec {
	cpu := workload.Program{Name: "compute", Phases: []workload.Phase{{
		Name: "steady", Alpha: 1.4, Instructions: 1e15,
	}}}
	mem := workload.Program{Name: "data", Phases: []workload.Phase{{
		Name: "steady", Alpha: 1.1,
		Rates:        memhier.AccessRates{L2PerInstr: 0.030, L3PerInstr: 0.006, MemPerInstr: 0.0186},
		Instructions: 1e15,
	}}}
	return []farmClusterSpec{
		{name: "compute", prog: cpu, busyCPUs: 4, seedOff: 100},
		{name: "data", prog: mem, busyCPUs: 4, seedOff: 200},
		{name: "web", prog: cpu, busyCPUs: 1, seedOff: 300},
	}
}

// farmNodes builds one cluster's four nodes with deterministic per-node
// seeds.
func (o Options) farmNodes(spec farmClusterSpec) ([]*cluster.Node, error) {
	progs := make([][]workload.Program, spec.busyCPUs)
	for cpu := range progs {
		progs[cpu] = []workload.Program{spec.prog}
	}
	var nodes []*cluster.Node
	for j := 0; j < 4; j++ {
		mcfg := o.machineConfig(4)
		mcfg.Seed = o.Seed + spec.seedOff + int64(j)
		mcfg.Name = fmt.Sprintf("%s-%d", spec.name, j)
		m, err := machine.New(mcfg, progs...)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, &cluster.Node{Name: mcfg.Name, M: m})
	}
	return nodes, nil
}

// farmSource builds the grid→UPS failover source; the *UPS is returned
// for draining and runway checks.
func farmSource() (power.BudgetSource, *farm.UPS, error) {
	ups, err := farm.NewUPS(units.Joules(farmUPSJoules), farmRunwaySec)
	if err != nil {
		return nil, nil, err
	}
	return farm.Failover{
		At:     farmFailAt,
		Before: farm.Static(units.Watts(farmGridW)),
		After:  ups,
	}, ups, nil
}

// FarmPolicyOutcome is one policy's run of the scenario.
type FarmPolicyOutcome struct {
	Policy string
	// LossSeconds is the time integral of the aggregate predicted
	// performance loss (Σ over processors, per the shared prediction
	// grid), in loss·seconds — lower is better.
	LossSeconds float64
	// ClusterLoss splits LossSeconds by cluster.
	ClusterLoss map[string]float64
	// OvershootSec is how long Σ(charged budgets) exceeded the global
	// budget — the conservation invariant's failure time, which must be
	// zero.
	OvershootSec float64
	// MinRunwaySec is the worst instantaneous UPS runway (remaining
	// energy / measured draw) after the failover settles.
	MinRunwaySec float64
	// RunwayMet reports the battery sustained ≈ the configured runway
	// throughout and never emptied.
	RunwayMet bool
	// UPSRemainingJ is the energy left at the end of the run.
	UPSRemainingJ float64
	// Reallocs / BudgetReallocs / LeaseExpiries count the allocator's
	// trace events (zero for the allocator-less uniform policy).
	Reallocs       int
	BudgetReallocs int
	LeaseExpiries  int
}

// farmAllocRun runs the scenario under the farm allocator with the given
// division policy.
func (o Options) farmAllocRun(policy farm.Policy) (FarmPolicyOutcome, error) {
	specs := farmSpecs()
	src, ups, err := farmSource()
	if err != nil {
		return FarmPolicyOutcome{}, err
	}
	sink := &obs.Buffer{}

	cfg := fvsst.DefaultConfig()
	cfg.UseIdleSignal = true
	coords := make([]*cluster.Coordinator, len(specs))
	members := make([]farm.Member, len(specs))
	quantum := 0.0
	for ci, spec := range specs {
		nodes, err := o.farmNodes(spec)
		if err != nil {
			return FarmPolicyOutcome{}, err
		}
		quantum = nodes[0].M.Config().Quantum
		c, err := cluster.New(cfg, units.Watts(farmGridW/3), nodes...)
		if err != nil {
			return FarmPolicyOutcome{}, err
		}
		coords[ci] = c
		members[ci] = farm.Member{Name: spec.name, Floor: c.FloorPower()}
	}

	alloc, err := farm.NewAllocator(farm.AllocatorConfig{
		Source:   src,
		Members:  members,
		Periods:  farmPeriods,
		LeaseTTL: farmLeaseTTL,
		Safety:   farmSafety,
		Policy:   policy,
		Sink:     sink,
	})
	if err != nil {
		return FarmPolicyOutcome{}, err
	}
	for ci, c := range coords {
		c.SetBudgetSource(alloc.Holder(ci))
	}

	out := FarmPolicyOutcome{
		Policy:       string(policy),
		ClusterLoss:  map[string]float64{},
		MinRunwaySec: math.Inf(1),
	}
	steps := int(farmDuration/quantum + 0.5)
	for i := 0; i < steps; i++ {
		now := float64(i) * quantum
		// The data cluster is out of the allocator's reach for the
		// partition window; everyone else answers with a fresh curve.
		if _, _, err := alloc.Round(now, func(ci int) (farm.DemandCurve, bool, error) {
			if specs[ci].name == "data" && now >= farmPartStart && now < farmPartEnd {
				return farm.DemandCurve{}, false, nil
			}
			curve, err := coords[ci].DemandCurve()
			return curve, true, err
		}); err != nil {
			return FarmPolicyOutcome{}, err
		}
		if float64(alloc.Charged(now)) > float64(src.BudgetAt(now))*(1+1e-9) {
			out.OvershootSec += quantum
		}
		var draw units.Power
		for ci, c := range coords {
			if err := c.Step(); err != nil {
				return FarmPolicyOutcome{}, err
			}
			draw += c.TotalCPUPower()
			if d, ok := c.LastDecision(); ok {
				var loss float64
				for _, as := range d.Assignments {
					loss += as.PredictedLoss
				}
				out.ClusterLoss[specs[ci].name] += loss * quantum
				out.LossSeconds += loss * quantum
			}
		}
		if now >= farmFailAt {
			if err := ups.Drain(draw, quantum); err != nil {
				return FarmPolicyOutcome{}, err
			}
			if now >= farmFailAt+farmRunwayGrace {
				if r := ups.RunwayAt(now+quantum, draw); r < out.MinRunwaySec {
					out.MinRunwaySec = r
				}
			}
		}
	}
	out.UPSRemainingJ = ups.Remaining().J()
	out.RunwayMet = !ups.Empty() && out.MinRunwaySec >= farmRunwaySec-farmRunwayGrace
	out.Reallocs = sink.Count(obs.EventRealloc, "")
	out.BudgetReallocs = sink.Count(obs.EventRealloc, "budget-change")
	out.LeaseExpiries = sink.Count(obs.EventLeaseExpire, "")
	return out, nil
}

// farmUniformRun is the allocator-less baseline: every processor in the
// farm pinned each quantum at the highest common frequency whose 48-way
// table power fits the budget. It reacts instantly (no leases, no RTT)
// and ignores the partition — advantages the real policies don't get.
func (o Options) farmUniformRun() (FarmPolicyOutcome, error) {
	specs := farmSpecs()
	src, ups, err := farmSource()
	if err != nil {
		return FarmPolicyOutcome{}, err
	}
	cfg := fvsst.DefaultConfig()
	cfg.UseIdleSignal = true
	core, err := cluster.NewCore(cfg)
	if err != nil {
		return FarmPolicyOutcome{}, err
	}
	table := cfg.Table

	type uniNode struct {
		cluster int
		m       *machine.Machine
		sampler *counters.Sampler
	}
	var nodes []uniNode
	var ms []*machine.Machine
	nProcs := 0
	quantum := 0.0
	for ci, spec := range specs {
		ns, err := o.farmNodes(spec)
		if err != nil {
			return FarmPolicyOutcome{}, err
		}
		for _, n := range ns {
			quantum = n.M.Config().Quantum
			s, err := counters.NewSampler(n.M, 4*cfg.SchedulePeriods)
			if err != nil {
				return FarmPolicyOutcome{}, err
			}
			nodes = append(nodes, uniNode{cluster: ci, m: n.M, sampler: s})
			ms = append(ms, n.M)
			nProcs += n.M.NumCPUs()
		}
	}

	// inputs assembles one cluster's ProcInputs from the samplers, over
	// the same aggregation window the coordinators use (without their RTT
	// staleness — the baseline sees fresher data than the real policies).
	// Every call refills the same two buffers, which UniformLoss reads
	// only during its call: each observed input's Obs points into obsBuf,
	// sized for the whole farm so no cluster outgrows it.
	var inBuf []cluster.ProcInput
	obsBuf := make([]perfmodel.Observation, nProcs)
	inputs := func(ci int) []cluster.ProcInput {
		inBuf = inBuf[:0]
		for ni, n := range nodes {
			if n.cluster != ci {
				continue
			}
			for cpu := 0; cpu < n.m.NumCPUs(); cpu++ {
				in := cluster.ProcInput{Proc: cluster.ProcRef{Node: ni, CPU: cpu}, Node: n.m.Config().Name}
				if n.m.IsIdle(cpu) {
					in.Idle = true
				} else if o, ok := perfmodel.ObservationFrom(n.sampler.WindowAggregate(cpu, cfg.SchedulePeriods)); ok {
					obsBuf[len(inBuf)] = o
					in.Obs = &obsBuf[len(inBuf)]
				}
				inBuf = append(inBuf, in)
			}
		}
		return inBuf
	}

	out := FarmPolicyOutcome{
		Policy:       "uniform",
		ClusterLoss:  map[string]float64{},
		MinRunwaySec: math.Inf(1),
	}
	lossNow := make([]float64, len(specs))
	fi := -1
	steps := int(farmDuration/quantum + 0.5)
	for i := 0; i < steps; i++ {
		now := float64(i) * quantum
		budget := src.BudgetAt(now)
		if fi, err = uniformPin(budget, fi, ms...); err != nil {
			return FarmPolicyOutcome{}, err
		}
		if i%farmPeriods == 0 {
			for ci := range specs {
				l, err := core.UniformLoss(inputs(ci), fi)
				if err != nil {
					return FarmPolicyOutcome{}, err
				}
				lossNow[ci] = l
			}
		}
		charged := units.Power(float64(table.PowerAtIndex(fi)) * float64(nProcs))
		if float64(charged) > float64(budget)*(1+1e-9) {
			out.OvershootSec += quantum
		}
		var draw units.Power
		for _, n := range nodes {
			if err := n.m.StepQuantum(); err != nil {
				return FarmPolicyOutcome{}, err
			}
			if err := n.sampler.Collect(); err != nil {
				return FarmPolicyOutcome{}, err
			}
			draw += n.m.TotalCPUPower()
		}
		for ci, spec := range specs {
			out.ClusterLoss[spec.name] += lossNow[ci] * quantum
			out.LossSeconds += lossNow[ci] * quantum
		}
		if now >= farmFailAt {
			if err := ups.Drain(draw, quantum); err != nil {
				return FarmPolicyOutcome{}, err
			}
			if now >= farmFailAt+farmRunwayGrace {
				if r := ups.RunwayAt(now+quantum, draw); r < out.MinRunwaySec {
					out.MinRunwaySec = r
				}
			}
		}
	}
	out.UPSRemainingJ = ups.Remaining().J()
	out.RunwayMet = !ups.Empty() && out.MinRunwaySec >= farmRunwaySec-farmRunwayGrace
	return out, nil
}

// FarmPowerFailReport compares the three policies over the scenario.
type FarmPowerFailReport struct {
	GridW        float64
	UPSJoules    float64
	RunwaySec    float64
	FailAt       float64
	PartStart    float64
	PartEnd      float64
	Duration     float64
	Hierarchical FarmPolicyOutcome
	EqualSplit   FarmPolicyOutcome
	Uniform      FarmPolicyOutcome
}

// FarmPowerFail runs the farm power-fail study.
func FarmPowerFail(o Options) (*FarmPowerFailReport, error) {
	hier, err := o.farmAllocRun(farm.PolicyLeastLoss)
	if err != nil {
		return nil, err
	}
	hier.Policy = "hierarchical"
	equal, err := o.farmAllocRun(farm.PolicyEqualSplit)
	if err != nil {
		return nil, err
	}
	uni, err := o.farmUniformRun()
	if err != nil {
		return nil, err
	}
	return &FarmPowerFailReport{
		GridW:        farmGridW,
		UPSJoules:    farmUPSJoules,
		RunwaySec:    farmRunwaySec,
		FailAt:       farmFailAt,
		PartStart:    farmPartStart,
		PartEnd:      farmPartEnd,
		Duration:     farmDuration,
		Hierarchical: hier,
		EqualSplit:   equal,
		Uniform:      uni,
	}, nil
}

// Outcomes returns the three policies in presentation order.
func (r *FarmPowerFailReport) Outcomes() []FarmPolicyOutcome {
	return []FarmPolicyOutcome{r.Hierarchical, r.EqualSplit, r.Uniform}
}

// Render formats the report.
func (r *FarmPowerFailReport) Render() string {
	t := textTable{
		Title: fmt.Sprintf(
			"Farm power-fail: 3 clusters × 4 nodes × 4 CPUs; grid %.0fW fails at t=%.0fs onto a %.0fJ UPS (%.0fs runway); \"data\" partitioned t∈[%.1f,%.1f)s",
			r.GridW, r.FailAt, r.UPSJoules, r.RunwaySec, r.PartStart, r.PartEnd),
		Headers: []string{"Policy", "loss·s", "compute", "data", "web", "overshoot", "min runway", "UPS left"},
	}
	for _, p := range r.Outcomes() {
		t.addRow(p.Policy,
			fmt.Sprintf("%.3f", p.LossSeconds),
			fmt.Sprintf("%.3f", p.ClusterLoss["compute"]),
			fmt.Sprintf("%.3f", p.ClusterLoss["data"]),
			fmt.Sprintf("%.3f", p.ClusterLoss["web"]),
			fmt.Sprintf("%.2fs", p.OvershootSec),
			fmt.Sprintf("%.2fs", p.MinRunwaySec),
			fmt.Sprintf("%.0fJ", p.UPSRemainingJ))
	}
	return t.String() + fmt.Sprintf(
		"hierarchical: %d reallocations (%d budget-change), %d lease expiries; runway met: %v/%v/%v\n",
		r.Hierarchical.Reallocs, r.Hierarchical.BudgetReallocs, r.Hierarchical.LeaseExpiries,
		r.Hierarchical.RunwayMet, r.EqualSplit.RunwayMet, r.Uniform.RunwayMet)
}
