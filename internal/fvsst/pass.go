package fvsst

import (
	"time"

	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// Pass is one run of the Figure 3 algorithm over a set of processors, and
// the only place its three steps are sequenced. An owner — the Scheduler
// for one SMP, cluster.Core for a cluster, a policy or an experiment for a
// hand-made set — begins a pass, marks every processor idle, unobserved or
// observed (Step 1), fits the set to a budget (Step 2) and reads the
// outcome back, voltages included (Step 3). The owner keeps how a
// processor comes to be idle or observed and what is done with the answer.
//
// A Pass owns the per-pass scratch — prediction grid, desired and actual
// table indices, demotion buffer, phase clock — and reuses it, so a warm
// pass allocates nothing (docs/engine.md has the ownership rules). What it
// returns is valid until the next Begin. Not safe for concurrent use.
type Pass struct {
	table   *power.Table
	set     units.FrequencySet
	epsilon float64
	ideal   bool

	grid    perfmodel.PredGrid
	desired []int
	actual  []int
	demo    []Demotion

	// timing gates every clock read. phase is when the phase under way
	// began: Step 1 from Begin, Step 3 from the end of Fit.
	timing           bool
	phase, fillStart time.Time
	fill             time.Duration
	timings          PassTimings
}

// PassTimings is the wall-clock duration of each Figure-3 phase of one
// pass, in seconds. GridFill (decompose + per-frequency sweeps) is broken
// out of StepOne so the two child spans are disjoint.
type PassTimings struct {
	GridFill  float64
	StepOne   float64
	StepTwo   float64
	StepThree float64
}

// NewPass builds a pass from the fields of the configuration that are the
// algorithm's own: Table, Epsilon and UseIdealFrequency. The others belong
// to the owner, which also validates the whole.
func NewPass(cfg Config) *Pass {
	return &Pass{
		table:   cfg.Table,
		set:     cfg.Table.Frequencies(),
		epsilon: cfg.Epsilon,
		ideal:   cfg.UseIdealFrequency,
	}
}

// SetTiming toggles the phase clock. Off, the default, a pass reads no
// clock and Finish returns zero timings.
func (p *Pass) SetTiming(on bool) { p.timing = on }

// Begin starts a pass over n processors, each still to be marked.
func (p *Pass) Begin(n int) {
	if p.timing {
		p.timings, p.fill = PassTimings{}, 0
		p.phase = time.Now()
	}
	p.grid.Reset(n, p.set)
	if cap(p.desired) < n {
		p.desired = make([]int, n)
		p.actual = make([]int, n)
	}
	p.desired = p.desired[:n]
	p.actual = p.actual[:n]
}

// Idle marks processor i idle: it desires the minimum setting.
func (p *Pass) Idle(i int) { p.desired[i] = 0 }

// Unobserved marks processor i as having no usable counter window (just
// started, fully throttled, or its data never arrived): it is scheduled
// conservatively, at f_max.
func (p *Pass) Unobserved(i int) { p.desired[i] = len(p.set) - 1 }

// StartFill opens the grid-fill share of the next Observe. The owner calls
// it before deriving the decomposition, so the grid-fill span covers
// decompose + sweep.
func (p *Pass) StartFill() {
	if p.timing {
		p.fillStart = time.Now()
	}
}

// Observe is Step 1 for a busy processor. Its frequency sweep is evaluated
// into the grid exactly once — Step 2 and the read-back use those bits —
// and it desires the ε-constrained setting: the closed form of §5 under
// UseIdealFrequency, the scan otherwise.
func (p *Pass) Observe(i int, dec perfmodel.Decomposition) error {
	p.grid.Fill(i, dec)
	if p.timing {
		p.fill += time.Since(p.fillStart)
	}
	if !p.ideal {
		p.desired[i] = EpsilonIndexGrid(&p.grid, i, p.epsilon)
		return nil
	}
	f, err := IdealEpsilonFrequency(dec, p.set, p.epsilon)
	if err != nil {
		return err
	}
	p.desired[i] = p.table.IndexOf(f)
	return nil
}

// Desired returns the Step-1 table index per processor, the desires Fit
// starts from.
func (p *Pass) Desired() []int { return p.desired }

// Fit is Step 2: from the desired indices, demote least-loss processors
// until the aggregate table power fits the budget, and report whether it
// does. Actual and Demotions hold the outcome.
func (p *Pass) Fit(budget units.Power) (met bool) {
	var stepTwo time.Time
	if p.timing {
		stepTwo = time.Now()
		p.timings.GridFill = p.fill.Seconds()
		p.timings.StepOne = (stepTwo.Sub(p.phase) - p.fill).Seconds()
	}
	copy(p.actual, p.desired)
	p.demo, met = FitToBudgetGrid(&p.grid, p.actual, p.table, budget, p.demo[:0])
	if p.timing {
		p.phase = time.Now()
		p.timings.StepTwo = p.phase.Sub(stepTwo).Seconds()
	}
	return met
}

// Actual returns the post-Step-2 table index per processor.
func (p *Pass) Actual() []int { return p.actual }

// Demotions returns the ordered Step-2 reductions of the last Fit.
func (p *Pass) Demotions() []Demotion { return p.demo }

// Voltage is Step 3 for processor i: the table's minimum voltage for its
// actual frequency.
func (p *Pass) Voltage(i int) units.Voltage { return p.table.VoltageAtIndex(p.actual[i]) }

// Predicted returns processor i's predicted loss versus f_max and
// predicted IPC at its actual setting; ok is false for an idle or
// unobserved processor, which has no prediction.
func (p *Pass) Predicted(i int) (loss, ipc float64, ok bool) {
	if !p.grid.Valid(i) {
		return 0, 0, false
	}
	return p.grid.Loss(i, p.actual[i]), p.grid.IPC(i, p.actual[i]), true
}

// TablePower returns the aggregate table power of the actual settings,
// summed in processor order — the sum Step 2's stop test compares.
func (p *Pass) TablePower() units.Power { return p.table.SumAtIndices(p.actual) }

// Grid returns the pass's prediction grid, for read-only use.
func (p *Pass) Grid() *perfmodel.PredGrid { return &p.grid }

// Finish closes the Step-3 clock — the owner calls it once it has read the
// outcome back — and returns the phase timings.
func (p *Pass) Finish() PassTimings {
	if !p.timing {
		return PassTimings{}
	}
	p.timings.StepThree = time.Since(p.phase).Seconds()
	return p.timings
}

// EmitStepSpans emits the Figure-3 phase children of one pass's span tree
// (grid-fill, step1, step2, step3), for every tier.
func EmitStepSpans(sink obs.Sink, at float64, passID uint64, t PassTimings) {
	sink.Emit(obs.SpanEvent(at, passID, "", obs.SpanGridFill, obs.SpanPass, t.GridFill))
	sink.Emit(obs.SpanEvent(at, passID, "", obs.SpanStepOne, obs.SpanPass, t.StepOne))
	sink.Emit(obs.SpanEvent(at, passID, "", obs.SpanStepTwo, obs.SpanPass, t.StepTwo))
	sink.Emit(obs.SpanEvent(at, passID, "", obs.SpanStepThree, obs.SpanPass, t.StepThree))
}
