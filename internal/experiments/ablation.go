package experiments

import (
	"fmt"
	"slices"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

// AblationPoliciesReport compares fvsst against the §1 alternatives —
// uniform scaling, node power-down, utilisation DVS — over a budget sweep
// on a diverse 4-CPU workload (one CPU-bound, two memory-bound, one idle).
type AblationPoliciesReport struct {
	BudgetsW []float64
	// Perf[policy][budget index]: mean per-processor performance
	// normalised to full frequency (each workload weighted equally).
	Perf map[string][]float64
	// WorstLoss[policy][budget index]: worst single-processor loss.
	WorstLoss map[string][]float64
}

// ablationBudgetsW is AblationPolicies' budget sweep: from the 4-CPU
// machine's full 560 W, past the motivating 294 W, down to 60 W, still
// above Table 1's 4 × 9 W floor.
var ablationBudgetsW = []float64{560, 420, 294, 200, 150, 100, 60}

// ablationInput is AblationPolicies' fixed diverse-workload decomposition
// (the same shape the machine tests exercise end to end): one CPU-bound,
// two memory-bound and one idle processor. Its Budget is unset.
func ablationInput() policyInput {
	mk := func(alpha, stallNs float64) *perfmodel.Decomposition {
		return &perfmodel.Decomposition{InvAlpha: 1 / alpha, StallSecPerInstr: stallNs * 1e-9}
	}
	return policyInput{
		Decs:    []*perfmodel.Decomposition{mk(1.4, 0.1), mk(1.1, 8.44), mk(1.0, 12), nil},
		Idle:    []bool{false, false, false, true},
		Util:    []float64{1, 1, 1, 0},
		Table:   power.PaperTable1(),
		Epsilon: 0.05,
	}
}

// AblationPolicies runs the policy comparison analytically on
// ablationInput over ablationBudgetsW.
func AblationPolicies() (*AblationPoliciesReport, error) {
	in := ablationInput()
	rep := &AblationPoliciesReport{
		BudgetsW:  slices.Clone(ablationBudgetsW),
		Perf:      map[string][]float64{},
		WorstLoss: map[string][]float64{},
	}
	set := in.Table.Frequencies()
	for _, pol := range policies {
		for _, b := range ablationBudgetsW {
			in.Budget = units.Watts(b)
			out, err := pol.assign(in)
			if err != nil {
				return nil, err
			}
			rep.Perf[pol.name] = append(rep.Perf[pol.name],
				meanNormPerf(in.Decs, in.Idle, out, set.Max()))
			rep.WorstLoss[pol.name] = append(rep.WorstLoss[pol.name],
				worstCaseLoss(in.Decs, in.Idle, out, set))
		}
	}
	return rep, nil
}

// Render formats the report.
func (r *AblationPoliciesReport) Render() string {
	t := textTable{
		Title:   "Ablation: policy comparison (mean per-CPU normalised perf | worst per-CPU loss)",
		Headers: []string{"Budget"},
	}
	for _, pol := range policies {
		t.Headers = append(t.Headers, pol.name)
	}
	for i, b := range r.BudgetsW {
		row := []string{fmt.Sprintf("%.0fW", b)}
		for _, pol := range policies {
			row = append(row, fmt.Sprintf("%.3f|%.2f", r.Perf[pol.name][i], r.WorstLoss[pol.name][i]))
		}
		t.addRow(row...)
	}
	return t.String()
}

// AblationIdealReport compares the discrete ε-scan of Figure 3 against the
// continuous f_ideal extension of §5 on the fine-grained Table 1 set.
type AblationIdealReport struct {
	// Agreements counts decompositions where the two pick the same
	// setting; WithinOneStep where they differ by ≤50 MHz.
	Total, Agreements, WithinOneStep int
	// MeanAbsDiffMHz is the mean |scan − ideal|.
	MeanAbsDiffMHz float64
}

// AblationIdeal sweeps a grid of workload decompositions.
func AblationIdeal() (*AblationIdealReport, error) {
	tab := power.PaperTable1()
	scanPass := fvsst.NewPass(fvsst.Config{Table: tab, Epsilon: 0.05})
	idealPass := fvsst.NewPass(fvsst.Config{Table: tab, Epsilon: 0.05, UseIdealFrequency: true})
	// stepOne is Step 1 for one processor through p: its ε-constrained setting.
	stepOne := func(p *fvsst.Pass, d perfmodel.Decomposition) (units.Frequency, error) {
		p.Begin(1)
		if err := p.Observe(0, d); err != nil {
			return 0, err
		}
		return tab.FrequencyAtIndex(p.Desired()[0]), nil
	}
	rep := &AblationIdealReport{}
	var diffSum float64
	for ai := 0; ai < 30; ai++ {
		for si := 0; si < 50; si++ {
			alpha := 0.5 + float64(ai)/10
			stall := float64(si) * 0.3e-9
			d := perfmodel.Decomposition{InvAlpha: 1 / alpha, StallSecPerInstr: stall}
			scan, err := stepOne(scanPass, d)
			if err != nil {
				return nil, err
			}
			ideal, err := stepOne(idealPass, d)
			if err != nil {
				return nil, err
			}
			rep.Total++
			diff := scan.MHz() - ideal.MHz()
			if diff < 0 {
				diff = -diff
			}
			diffSum += diff
			if diff == 0 {
				rep.Agreements++
			}
			if diff <= 50 {
				rep.WithinOneStep++
			}
		}
	}
	rep.MeanAbsDiffMHz = diffSum / float64(rep.Total)
	return rep, nil
}

// Render formats the report.
func (r *AblationIdealReport) Render() string {
	return fmt.Sprintf(
		"Ablation: discrete ε-scan vs closed-form f_ideal over %d workloads\n"+
			"  identical choice: %d (%.0f%%)\n  within one 50MHz step: %d (%.0f%%)\n  mean |Δf| = %.1fMHz\n",
		r.Total,
		r.Agreements, 100*float64(r.Agreements)/float64(r.Total),
		r.WithinOneStep, 100*float64(r.WithinOneStep)/float64(r.Total),
		r.MeanAbsDiffMHz)
}

// AblationIdleReport quantifies the hot-idle pathology of §5/§7.1: system
// power with and without the idle signal on a machine with one busy and
// three hot-idle processors.
type AblationIdleReport struct {
	PowerNoSignalW   float64
	PowerWithSignalW float64
	// SavedW is the power the idle indicator recovers.
	SavedW float64
	// BusyThroughputRatio checks the busy CPU was not hurt: throughput
	// with signal / without.
	BusyThroughputRatio float64
}

// AblationIdle runs the idle-detection study.
func AblationIdle(o Options) (*AblationIdleReport, error) {
	run := func(useSignal bool) (float64, uint64, error) {
		m, err := machine.New(o.machineConfig(4), []workload.Program{workload.Gap(o.Scale)})
		if err != nil {
			return 0, 0, err
		}
		cfg := fvsst.DefaultConfig()
		cfg.UseIdleSignal = useSignal
		drv, err := newDriver(m, cfg, units.Watts(560))
		if err != nil {
			return 0, 0, err
		}
		seconds := 2*float64(o.Scale) + 0.5
		if err := drv.Run(seconds); err != nil {
			return 0, 0, err
		}
		sample, err := m.ReadCounters(0)
		if err != nil {
			return 0, 0, err
		}
		return m.SystemPower().W(), sample.Instructions, nil
	}
	pNo, instrNo, err := run(false)
	if err != nil {
		return nil, err
	}
	pYes, instrYes, err := run(true)
	if err != nil {
		return nil, err
	}
	return &AblationIdleReport{
		PowerNoSignalW:      pNo,
		PowerWithSignalW:    pYes,
		SavedW:              pNo - pYes,
		BusyThroughputRatio: float64(instrYes) / float64(instrNo),
	}, nil
}

// Render formats the report.
func (r *AblationIdleReport) Render() string {
	return fmt.Sprintf(
		"Ablation: idle detection (1 busy + 3 hot-idle CPUs)\n"+
			"  system power without idle signal: %.0fW\n"+
			"  system power with idle signal:    %.0fW  (saves %.0fW)\n"+
			"  busy-CPU throughput ratio (with/without): %.3f\n",
		r.PowerNoSignalW, r.PowerWithSignalW, r.SavedW, r.BusyThroughputRatio)
}
