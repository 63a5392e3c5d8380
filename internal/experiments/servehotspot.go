package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/farm"
	"repro/internal/fvsst"
	"repro/internal/units"
)

// The serve-hotspot study lifts the serving subsystem to the farm level:
// two clusters of two 4-way nodes share a 400 W budget (of a 2240 W
// unconstrained maximum). The "hot" cluster takes heavy web traffic, the
// "cold" cluster a trickle. Two division policies:
//
//   - hierarchical: the farm allocator's least-loss greedy, steering
//     budget to the cluster whose processors would lose the most
//     performance without it — the hot one;
//   - equal-split: the same lease machinery but each cluster gets half,
//     stranding watts on the mostly-idle cold cluster while the hot
//     cluster's serving CPUs are pinned near the table floor.
//
// Within each cluster the fvsst coordinator schedules as usual (idle
// signal on); stations hang off the coordinator's quantum hook, so
// arrivals, dispatch and timeout sweeps bracket the lockstep node
// stepping. Both policies serve byte-identical request sequences.
const (
	hotspotBudgetW  = 400.0
	hotspotNodes    = 2 // nodes per cluster
	hotspotNodeCPUs = 4
	hotspotWebRate  = 3.5 // requests/s per hot web client
	hotspotPeriods  = 10  // allocator pass every 10 quanta = 0.1 s
	hotspotLeaseTTL = 0.3
	hotspotSafety   = 0.02
)

// hotspotClusterSpec shapes one cluster's per-node traffic.
type hotspotClusterSpec struct {
	name       string
	webClients int
	webSpec    string
	batchSpec  string // one batch client per node; "" for none
	seedOff    int64
}

func hotspotSpecs() []hotspotClusterSpec {
	return []hotspotClusterSpec{
		{name: "hot", webClients: 4, webSpec: fmt.Sprintf("gamma:%g,cv=1.5", hotspotWebRate), batchSpec: "poisson:1", seedOff: 400},
		{name: "cold", webClients: 2, webSpec: "poisson:0.5", seedOff: 500},
	}
}

// HotspotClusterScore is one cluster's aggregate web score under a policy.
type HotspotClusterScore struct {
	Cluster     string
	Offered     uint64
	Completed   uint64
	TimedOut    uint64
	SLOOk       uint64
	Attainment  float64
	P99S        float64 // worst node
	MeanAllocW  float64
	PeakBacklog int
}

// HotspotOutcome is one policy's run.
type HotspotOutcome struct {
	Policy   string
	Clusters []HotspotClusterScore // hot, cold
	Jain     float64               // worst station's client fairness (hot cluster)
}

// hotspotRun serves the scenario under one farm division policy.
func (o Options) hotspotRun(policy farm.Policy, duration float64) (HotspotOutcome, error) {
	specs := hotspotSpecs()
	cfg := fvsst.DefaultConfig()
	cfg.UseIdleSignal = true

	coords := make([]*cluster.Coordinator, len(specs))
	members := make([]farm.Member, len(specs))
	nodesBy := make([][]servingNode, len(specs))
	feeding := true
	quantum := 0.0
	for ci, spec := range specs {
		var cnodes []*cluster.Node
		for j := 0; j < hotspotNodes; j++ {
			mcfg := o.machineConfig(hotspotNodeCPUs)
			mcfg.Seed = o.Seed + spec.seedOff + int64(j)
			mcfg.Name = fmt.Sprintf("%s-%d", spec.name, j)
			n, err := newServingNode(mcfg, spec.webClients, spec.webSpec, spec.batchSpec, 600)
			if err != nil {
				return HotspotOutcome{}, err
			}
			quantum = n.m.Config().Quantum
			nodesBy[ci] = append(nodesBy[ci], n)
			cnodes = append(cnodes, &cluster.Node{Name: mcfg.Name, M: n.m})
		}
		c, err := cluster.New(cfg, units.Watts(hotspotBudgetW/float64(len(specs))), cnodes...)
		if err != nil {
			return HotspotOutcome{}, err
		}
		// Stations ride the coordinator's quantum hook: deliver matured
		// arrivals and start idle CPUs before the lockstep node stepping,
		// sweep timeouts after it.
		myNodes := nodesBy[ci]
		c.SetQuantumHook(
			func(now float64) {
				for k := range myNodes {
					if feeding {
						myNodes[k].feeder.DeliverUpTo(now, myNodes[k].st)
					}
					myNodes[k].st.BeforeQuantum(now)
				}
			},
			func(now float64) {
				for k := range myNodes {
					myNodes[k].st.AfterQuantum(now)
				}
			})
		coords[ci] = c
		members[ci] = farm.Member{Name: spec.name, Floor: c.FloorPower()}
	}

	alloc, err := farm.NewAllocator(farm.AllocatorConfig{
		Source:   farm.Static(units.Watts(hotspotBudgetW)),
		Members:  members,
		Periods:  hotspotPeriods,
		LeaseTTL: hotspotLeaseTTL,
		Safety:   hotspotSafety,
		Policy:   policy,
	})
	if err != nil {
		return HotspotOutcome{}, err
	}
	for ci, c := range coords {
		c.SetBudgetSource(alloc.Holder(ci))
	}
	allocSum := make([]float64, len(specs))
	allocN := 0

	out := HotspotOutcome{Policy: string(policy), Jain: 1}
	peakBacklog := make([]int, len(specs))
	deadline := duration + 10
	for i := 0; ; i++ {
		now := float64(i) * quantum
		feeding = now < duration
		if now >= duration {
			drained := true
			for ci := range specs {
				for k := range nodesBy[ci] {
					if !nodesBy[ci][k].st.Drained() {
						drained = false
					}
				}
			}
			if drained {
				break
			}
			if now >= deadline {
				return HotspotOutcome{}, fmt.Errorf("experiments: %s hotspot run did not drain", policy)
			}
		}
		_, ran, err := alloc.Round(now, func(ci int) (farm.DemandCurve, bool, error) {
			curve, err := coords[ci].DemandCurve()
			return curve, true, err
		})
		if err != nil {
			return HotspotOutcome{}, err
		}
		if ran {
			for ci := range specs {
				l, _ := alloc.Holder(ci).Lease()
				allocSum[ci] += float64(l.Budget)
			}
			allocN++
		}
		for ci, c := range coords {
			if err := c.Step(); err != nil {
				return HotspotOutcome{}, err
			}
			backlog := 0
			for k := range nodesBy[ci] {
				backlog += nodesBy[ci][k].st.Backlog()
			}
			if backlog > peakBacklog[ci] {
				peakBacklog[ci] = backlog
			}
		}
	}

	for ci, spec := range specs {
		score := HotspotClusterScore{Cluster: spec.name, PeakBacklog: peakBacklog[ci]}
		for k := range nodesBy[ci] {
			sum := nodesBy[ci][k].st.Scoreboard().Summarize(duration)
			web := sum.Classes[0]
			score.Offered += web.Offered
			score.Completed += web.Completed
			score.TimedOut += web.TimedOut
			score.SLOOk += web.SLOOk
			if web.P99S > score.P99S {
				score.P99S = web.P99S
			}
			if spec.name == "hot" && sum.Jain < out.Jain {
				out.Jain = sum.Jain
			}
		}
		if resolved := score.Completed + score.TimedOut; resolved > 0 {
			score.Attainment = float64(score.SLOOk) / float64(resolved)
		}
		if allocN > 0 {
			score.MeanAllocW = allocSum[ci] / float64(allocN)
		}
		out.Clusters = append(out.Clusters, score)
	}
	return out, nil
}

// ServeHotspotReport compares the two division policies.
type ServeHotspotReport struct {
	BudgetW      float64
	DurationSec  float64
	Hierarchical HotspotOutcome
	EqualSplit   HotspotOutcome
}

// ServeHotspot runs the hotspot serving study.
func ServeHotspot(o Options) (*ServeHotspotReport, error) {
	duration := 8.0 * float64(o.Scale)
	if duration < 3 {
		duration = 3
	}
	hier, err := o.hotspotRun(farm.PolicyLeastLoss, duration)
	if err != nil {
		return nil, err
	}
	hier.Policy = "hierarchical"
	equal, err := o.hotspotRun(farm.PolicyEqualSplit, duration)
	if err != nil {
		return nil, err
	}
	equal.Policy = "equal-split"
	for ci := range hier.Clusters {
		if hier.Clusters[ci].Offered != equal.Clusters[ci].Offered {
			return nil, fmt.Errorf("experiments: hotspot traffic diverged for %s: %d vs %d offered",
				hier.Clusters[ci].Cluster, hier.Clusters[ci].Offered, equal.Clusters[ci].Offered)
		}
	}
	return &ServeHotspotReport{
		BudgetW:      hotspotBudgetW,
		DurationSec:  duration,
		Hierarchical: hier,
		EqualSplit:   equal,
	}, nil
}

// Outcomes returns the two policies in presentation order.
func (r *ServeHotspotReport) Outcomes() []HotspotOutcome {
	return []HotspotOutcome{r.Hierarchical, r.EqualSplit}
}

// Render formats the report.
func (r *ServeHotspotReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b,
		"Serve hotspot: 2 clusters × %d nodes × %d CPUs under a %.0fW farm budget for %.1fs;\n"+
			"hot cluster takes %.0f× the cold cluster's request rate\n",
		hotspotNodes, hotspotNodeCPUs, r.BudgetW, r.DurationSec,
		hotspotWebRate*4/(0.5*2))
	for _, p := range r.Outcomes() {
		fmt.Fprintf(&b, "policy %s (hot-cluster jain %.4f):\n", p.Policy, p.Jain)
		for _, c := range p.Clusters {
			fmt.Fprintf(&b,
				"  %-5s web attainment %6.2f%% (%d/%d slo-ok, %d timeout)  p99 %7.4fs  mean alloc %5.0fW  peak backlog %d\n",
				c.Cluster, 100*c.Attainment, c.SLOOk, c.Completed+c.TimedOut, c.TimedOut,
				c.P99S, c.MeanAllocW, c.PeakBacklog)
		}
	}
	return b.String()
}
