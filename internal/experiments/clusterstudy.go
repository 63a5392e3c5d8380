package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// ClusterStudyReport extends the evaluation to the cluster setting the
// paper targets but leaves as future work (§6: "the development of a
// prototype for the cluster environment remains as future work"): a
// three-tier web/app/db cluster under a global power cap, scheduled by the
// global fvsst coordinator versus a uniform per-cluster frequency cap.
type ClusterStudyReport struct {
	GlobalBudgetW float64
	// TierFreqFVSST / TierFreqUniform are the mean assigned frequencies
	// (MHz) per tier under each policy after the cap.
	TierFreqFVSST   map[string]float64
	TierFreqUniform map[string]float64
	// MakespanFVSST / MakespanUniform are the times (s) at which the last
	// workload completed.
	MakespanFVSST   float64
	MakespanUniform float64
	// PowerOK reports whether both stayed within the cap.
	PowerOK bool
}

// clusterRun builds a tiered cluster and runs it to completion under a
// global budget; uniform mode pins every processor at the highest common
// frequency fitting the budget instead of consulting the predictor. Both
// modes step the cluster one quantum at a time until every job is done.
func (o Options) clusterRun(budget units.Power, uniform bool) (map[string]float64, float64, bool, error) {
	mcfg := o.machineConfig(4)
	nodes, err := cluster.Tiered(mcfg, o.Scale)
	if err != nil {
		return nil, 0, false, err
	}
	freqs := map[string]float64{}
	powerOK := true
	sum := map[string]float64{}
	count := map[string]int{}
	var coord *cluster.Coordinator
	var step func() error
	if uniform {
		// Pre-assign the uniform cap and never reschedule: the classic
		// "slow all nodes uniformly" response. 12 processors share the
		// budget equally.
		ms := make([]*machine.Machine, len(nodes))
		for i, n := range nodes {
			ms[i] = n.M
		}
		fi, err := uniformPin(budget, -1, ms...)
		if err != nil {
			return nil, 0, false, err
		}
		for _, n := range nodes {
			freqs[n.Name] = mcfg.Table.FrequencyAtIndex(fi).MHz()
		}
		// Drive the machines directly without the coordinator.
		step = func() error {
			var total units.Power
			for _, n := range nodes {
				if err := n.M.StepQuantum(); err != nil {
					return err
				}
				total += n.M.TotalCPUPower()
			}
			if total > budget+units.Watts(1) {
				powerOK = false
			}
			return nil
		}
	} else {
		cfg := fvsst.DefaultConfig()
		cfg.UseIdleSignal = true
		if coord, err = cluster.New(cfg, budget, nodes...); err != nil {
			return nil, 0, false, err
		}
		// Mean busy-processor frequency per tier across every pass of the
		// run (a tier that finishes early goes idle and stops
		// contributing). The budget is fixed, so a Step runs at most one
		// pass: the timer pass that ends it.
		lastAt := -1.0
		step = func() error {
			err := coord.Step()
			if d, ok := coord.LastDecision(); ok && d.At != lastAt {
				lastAt = d.At
				for _, a := range d.Assignments {
					if !a.Idle {
						name := nodes[a.Proc.Node].Name
						sum[name] += a.Actual.MHz()
						count[name]++
					}
				}
			}
			return err
		}
	}
	for now := 0.0; !allDone(nodes); now += mcfg.Quantum {
		if now >= 3600 {
			return nil, 0, false, fmt.Errorf("experiments: cluster run (uniform %v) did not finish", uniform)
		}
		if err := step(); err != nil {
			return nil, 0, false, err
		}
	}
	if uniform {
		return freqs, lastCompletion(nodes), powerOK, nil
	}

	powerOK = coord.TotalCPUPower() <= budget+units.Watts(1)
	for name, s := range sum {
		freqs[name] = s / float64(count[name])
	}
	return freqs, lastCompletion(nodes), powerOK, nil
}

func allDone(nodes []*cluster.Node) bool {
	for _, n := range nodes {
		if !n.M.AllJobsDone() {
			return false
		}
	}
	return true
}

func lastCompletion(nodes []*cluster.Node) float64 {
	worst := 0.0
	for _, n := range nodes {
		for _, c := range n.M.Completions() {
			if c.At > worst {
				worst = c.At
			}
		}
	}
	return worst
}

// ClusterStudy runs the tiered-cluster comparison under a 900 W global cap
// (12 processors; unconstrained they would draw up to 1680 W).
func ClusterStudy(o Options) (*ClusterStudyReport, error) {
	const budgetW = 900
	fvFreqs, fvMakespan, fvOK, err := o.clusterRun(units.Watts(budgetW), false)
	if err != nil {
		return nil, err
	}
	unFreqs, unMakespan, unOK, err := o.clusterRun(units.Watts(budgetW), true)
	if err != nil {
		return nil, err
	}
	return &ClusterStudyReport{
		GlobalBudgetW:   budgetW,
		TierFreqFVSST:   fvFreqs,
		TierFreqUniform: unFreqs,
		MakespanFVSST:   fvMakespan,
		MakespanUniform: unMakespan,
		PowerOK:         fvOK && unOK,
	}, nil
}

// Render formats the report.
func (r *ClusterStudyReport) Render() string {
	t := telemetry.Table{
		Title:   fmt.Sprintf("Cluster study: 3-tier cluster under a %.0fW global cap", r.GlobalBudgetW),
		Headers: []string{"Tier", "fvsst mean f", "uniform f"},
	}
	for _, tier := range []string{"web", "app", "db"} {
		t.MustAddRow(tier,
			fmt.Sprintf("%.0fMHz", r.TierFreqFVSST[tier]),
			fmt.Sprintf("%.0fMHz", r.TierFreqUniform[tier]))
	}
	return t.String() + fmt.Sprintf(
		"makespan: fvsst %.2fs vs uniform %.2fs (%.1f%% faster); power within cap: %v\n",
		r.MakespanFVSST, r.MakespanUniform,
		(r.MakespanUniform/r.MakespanFVSST-1)*100, r.PowerOK)
}
