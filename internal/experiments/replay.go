package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/fvsst"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/scenario"
	"repro/internal/units"
)

// ReplayedPass is one re-decided scheduling pass: the counterfactual
// Steps 1–3 outcome computed from the recorded observation windows. The
// MHz/V conventions match obs.CPUTrace so an unperturbed replay can be
// compared field-for-field against the recorded decision.
type ReplayedPass struct {
	At          float64   `json:"t"`
	DesiredMHz  []float64 `json:"desired_mhz"`
	ActualMHz   []float64 `json:"actual_mhz"`
	VoltageV    []float64 `json:"voltage_v"`
	BudgetMet   bool      `json:"budget_met"`
	Loss        float64   `json:"loss"`
	TablePowerW float64   `json:"table_power_w"`
}

// ReplayResult aggregates a replayed trace. EnergyProxyJ integrates
// table power over the schedule period — the open-loop analogue of the
// driver's energy ledger (replay cannot re-run the machines, so the
// table is the best available proxy).
type ReplayResult struct {
	Passes       []ReplayedPass `json:"passes"`
	Skipped      int            `json:"skipped,omitempty"`
	TotalLoss    float64        `json:"total_loss"`
	EnergyProxyJ float64        `json:"energy_proxy_j"`
}

// ReplayDecisions re-runs Steps 1–3 over the recorded passes of a
// decision trace (obs.ReadDecisions) under perturbed policy knobs —
// the open-loop arm of the counterfactual harness. Each recorded event
// becomes the []cluster.ProcInput it was scheduled from and goes through
// cluster.Core.Schedule under the ε knob, then, for debounce/allocator
// knobs, the scenario.PolicyRewrite an in-run counterfactual applies. With
// zero knobs the replay therefore reproduces the recorded desired/actual/
// voltage decisions to the byte (TestReplayFidelity): counter windows are
// recorded hertz-exact and the budget is recovered as BudgetW − ReservedW.
// Passes without recorded observations (obs.Replayable false) are counted
// in Skipped.
func ReplayDecisions(events []obs.Event, cfg fvsst.Config, knobs scenario.PolicyKnobs) (*ReplayResult, error) {
	if knobs.Epsilon > 0 {
		cfg.Epsilon = knobs.Epsilon
	}
	core, err := cluster.NewCore(cfg)
	if err != nil {
		return nil, err
	}
	rewrite := scenario.NewPolicyRewrite(&knobs)
	period := cfg.SamplePeriod * float64(cfg.SchedulePeriods)
	res := &ReplayResult{}
	var inputs []cluster.ProcInput
	for _, ev := range events {
		if ev.Type != obs.EventSchedule {
			continue
		}
		if !obs.Replayable(ev) {
			res.Skipped++
			continue
		}
		inputs = inputs[:0]
		for _, ct := range ev.CPUs {
			in := cluster.ProcInput{Proc: cluster.ProcRef{CPU: ct.CPU}, Node: ct.Node, Idle: ct.Idle}
			if o := ct.Obs; o != nil {
				in.Obs = &perfmodel.Observation{
					Delta: counters.Delta{
						Window:       o.WindowS,
						Instructions: o.Instructions,
						Cycles:       o.Cycles,
						HaltedCycles: o.HaltedCycles,
						L2Refs:       o.L2Refs,
						L3Refs:       o.L3Refs,
						MemRefs:      o.MemRefs,
					},
					Freq: units.Frequency(o.FreqHz),
				}
			}
			inputs = append(inputs, in)
		}
		budget := units.Watts(ev.BudgetW - ev.ReservedW)
		pass, err := core.Schedule(inputs, budget)
		if err != nil {
			return nil, fmt.Errorf("experiments: replay t=%v: %w", ev.At, err)
		}
		if rewrite != nil {
			if pass, err = rewrite(core, inputs, pass, budget); err != nil {
				return nil, fmt.Errorf("experiments: replay t=%v: %w", ev.At, err)
			}
		}
		rp := ReplayedPass{At: ev.At, BudgetMet: pass.BudgetMet, TablePowerW: pass.TablePower.W()}
		for _, a := range pass.Assignments {
			rp.DesiredMHz = append(rp.DesiredMHz, a.Desired.MHz())
			rp.ActualMHz = append(rp.ActualMHz, a.Actual.MHz())
			rp.VoltageV = append(rp.VoltageV, a.Voltage.V())
			rp.Loss += a.PredictedLoss
		}
		res.TotalLoss += rp.Loss
		res.EnergyProxyJ += rp.TablePowerW * period
		res.Passes = append(res.Passes, rp)
	}
	return res, nil
}
