package invariant

import (
	"fmt"

	"repro/internal/fvsst"
	"repro/internal/memhier"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// Proc is one CPU's slice of a scheduling pass as the checkers see it:
// the raw inputs the scheduler consumed (idle flag, counter observation)
// and the outputs it produced (Step-1 desired index, Step-2 actual index,
// Step-3 voltage).
type Proc struct {
	Node string
	CPU  int
	Idle bool
	// Obs is the counter observation Step 1 consumed, nil when the CPU had
	// no usable counters this pass (scheduler pins it at f_max).
	Obs *perfmodel.Observation
	// DesiredIdx is Step 1's ε-choice as a power.Table index.
	DesiredIdx int
	// ActualIdx is the index after Step 2's budget demotions.
	ActualIdx int
	// Voltage is Step 3's setting for ActualIdx.
	Voltage units.Voltage
}

// Pass is a complete snapshot of one scheduling pass: the configuration
// in force, every CPU's inputs and outputs, the demotion log, and the
// charged/met verdict. NewPass re-derives the prediction grid from the
// raw observations so checkers judge the production path against an
// independent computation rather than its own intermediate state.
type Pass struct {
	At      float64
	Budget  units.Power
	Charged units.Power
	Met     bool

	Epsilon       float64
	UseIdleSignal bool
	Table         *power.Table

	Procs     []Proc
	Demotions []fvsst.Demotion

	grid perfmodel.PredGrid
}

// NewPass validates the snapshot and fills the checker-owned prediction
// grid. The closed-form ideal frequency (UseIdealFrequency) changes Step-1
// semantics in ways these checkers do not model, so a config that turns it
// on is rejected rather than silently mis-checked.
func NewPass(cfg fvsst.Config, at float64, budget units.Power, procs []Proc, demotions []fvsst.Demotion, charged units.Power, met bool) (*Pass, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("invariant: config: %w", err)
	}
	if cfg.UseIdealFrequency {
		return nil, fmt.Errorf("invariant: config uses Step-1 variants the checkers do not model")
	}
	p := &Pass{
		At:            at,
		Budget:        budget,
		Charged:       charged,
		Met:           met,
		Epsilon:       cfg.Epsilon,
		UseIdleSignal: cfg.UseIdleSignal,
		Table:         cfg.Table,
		Procs:         procs,
		Demotions:     demotions,
	}
	pred, err := perfmodel.New(memhier.P630())
	if err != nil {
		return nil, fmt.Errorf("invariant: predictor: %w", err)
	}
	nf := cfg.Table.Len()
	p.grid.Reset(len(procs), cfg.Table.Frequencies())
	for i, pr := range procs {
		if pr.DesiredIdx < 0 || pr.DesiredIdx >= nf {
			return nil, fmt.Errorf("invariant: proc %d desired index %d outside table [0,%d)", i, pr.DesiredIdx, nf)
		}
		if pr.ActualIdx < 0 || pr.ActualIdx >= nf {
			return nil, fmt.Errorf("invariant: proc %d actual index %d outside table [0,%d)", i, pr.ActualIdx, nf)
		}
		// Mirror cluster.Core's marking rule: idle CPUs (when the idle
		// signal is honoured) and CPUs without counters get no prediction
		// row; everyone else gets an independently decomposed row.
		if cfg.UseIdleSignal && pr.Idle {
			continue
		}
		if pr.Obs == nil {
			continue
		}
		d, err := pred.Decompose(*pr.Obs)
		if err != nil {
			return nil, fmt.Errorf("invariant: proc %d decompose: %w", i, err)
		}
		p.grid.Fill(i, d)
	}
	return p, nil
}

// Grid exposes the checker-owned prediction grid (read-only use).
func (p *Pass) Grid() *perfmodel.PredGrid { return &p.grid }

func (p *Pass) procLabel(i int) string {
	pr := p.Procs[i]
	if pr.Node == "" {
		return fmt.Sprintf("cpu%d", pr.CPU)
	}
	return fmt.Sprintf("%s/cpu%d", pr.Node, pr.CPU)
}
