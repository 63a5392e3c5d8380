package cluster

import (
	"fmt"
	"math"

	"repro/internal/farm"
	"repro/internal/fvsst"
	"repro/internal/memhier"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

// ProcInput is one processor's contribution to a global scheduling pass:
// its address, the node name for traces, the idle indicator, and the
// counter-derived observation (nil when no usable counter data has
// reached the coordinator — the processor is then scheduled at f_max).
type ProcInput struct {
	Proc ProcRef
	Node string
	Idle bool
	Obs  *perfmodel.Observation
}

// PassResult is the outcome of one transport-independent global pass.
type PassResult struct {
	Assignments []Assignment
	Demotions   []fvsst.Demotion
	TablePower  units.Power
	BudgetMet   bool
	// Timings carries the wall-clock phase breakdown when the owning core
	// has SetPhaseTiming(true); the zero value means timing was off.
	Timings fvsst.PassTimings
	// predIPC/predValid keep each processor's predicted IPC at its actual
	// setting for trace enrichment (predValid is false for idle or
	// unobserved processors).
	predIPC   []float64
	predValid []bool
}

// Core is the transport-independent heart of the cluster scheduler: the
// global two-pass fvsst algorithm (Figure 3 Steps 1–3) over an arbitrary
// set of processor observations. The in-process Coordinator and the
// networked netcluster coordinator are two transports over this one core
// — they differ only in how observations arrive and actuations depart.
//
// The steps run in the core's fvsst.Pass, which owns the prediction grid
// and the rest of the per-pass scratch; the core's own part is translating
// ProcInputs into the pass's marks and the pass's answer into node-labelled
// assignments. Not safe for concurrent Schedule calls.
type Core struct {
	cfg  fvsst.Config
	pred perfmodel.Predictor
	pass *fvsst.Pass
}

// SetPhaseTiming toggles the per-phase wall-clock breakdown on Schedule
// results. Off by default: the coordinators enable it only when a trace
// sink is attached, keeping the no-sink hot path free of clock reads.
func (c *Core) SetPhaseTiming(on bool) { c.pass.SetTiming(on) }

// NewCore validates the configuration and builds the shared core. Of the
// single-machine scheduler's options the core honours every one that
// shapes a pass: Epsilon, UseIdleSignal and UseIdealFrequency.
func NewCore(cfg fvsst.Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pred, err := perfmodel.New(memhier.P630())
	if err != nil {
		return nil, err
	}
	return &Core{cfg: cfg, pred: pred, pass: fvsst.NewPass(cfg)}, nil
}

// begin starts a pass over the inputs and marks each processor: idle when
// the idle signal is enabled and raised, unobserved when no counter data
// reached the coordinator, observed otherwise. Shared by Schedule,
// DemandCurveDesired and UniformLoss.
func (c *Core) begin(inputs []ProcInput) error {
	p := c.pass
	p.Begin(len(inputs))
	for i, in := range inputs {
		switch {
		case c.cfg.UseIdleSignal && in.Idle:
			p.Idle(i)
		case in.Obs == nil:
			p.Unobserved(i)
		default:
			p.StartFill()
			dec, err := c.pred.Decompose(*in.Obs)
			if err != nil {
				return fmt.Errorf("cluster: %s cpu %d: %w", in.Node, in.Proc.CPU, err)
			}
			if err := p.Observe(i, dec); err != nil {
				return err
			}
		}
	}
	return nil
}

// DemandCurve exports this processor set's budget→predicted-loss
// trade-off for the farm allocator: the first point is the Step-1
// ε-constrained desire, each further point applies one more least-loss
// Step-2 demotion, and the last point is the floor with every processor
// at the table minimum. Only the grid rows a scheduling pass fills anyway
// are evaluated, so the curve costs no extra prediction work.
func (c *Core) DemandCurve(inputs []ProcInput) (farm.DemandCurve, error) {
	curve, _, err := c.DemandCurveDesired(inputs)
	return curve, err
}

// DemandCurveDesired is DemandCurve plus a copy of the Step-1 desired
// table index per processor — the relay tier ships both upward so a root
// coordinator can replay the flat Step-2 arithmetic exactly
// (farm.DivideLeastLossExact). The curve has no selection rule of its
// own: fvsst.FitToBudgetGrid walks the set to the floor once and the
// points replay its demotion list. Each point's Power carries the bits of
// the processor-order sum FitToBudgetGrid's stop test compares, so a
// member handed Points[k].Power as its budget demotes to exactly point k
// (TestDemandCurveMatchesSchedule). As there, power.Table.DemotedSum
// carries the aggregate from point to point as a running difference,
// which whole-watt sums make the processor-order re-sum's bits.
func (c *Core) DemandCurveDesired(inputs []ProcInput) (farm.DemandCurve, []int, error) {
	if len(inputs) == 0 {
		return farm.DemandCurve{}, nil, fmt.Errorf("cluster: demand curve needs at least one processor")
	}
	if err := c.begin(inputs); err != nil {
		return farm.DemandCurve{}, nil, err
	}
	p, table := c.pass, c.cfg.Table
	grid := p.Grid()
	desired := append([]int(nil), p.Desired()...)
	// No finite power sum fits −Inf, so the walk stops only at the floor.
	p.Fit(units.Power(math.Inf(-1)))
	demotions := p.Demotions()
	// Replay the walk from the desire, on the pass's own index scratch.
	idx := p.Actual()
	copy(idx, desired)

	sum := table.SumAtIndices(idx)
	var sumLoss float64
	for i, k := range idx {
		if grid.Valid(i) {
			sumLoss += grid.Loss(i, k)
		}
	}
	curve := farm.DemandCurve{Points: make([]farm.DemandPoint, 1, len(demotions)+1)}
	curve.Points[0] = farm.DemandPoint{Power: sum, Loss: sumLoss}
	for _, d := range demotions {
		k := idx[d.CPU]
		if grid.Valid(d.CPU) {
			sumLoss += grid.Loss(d.CPU, k-1) - grid.Loss(d.CPU, k)
		}
		idx[d.CPU] = k - 1
		sum = table.DemotedSum(sum, k)
		prev := curve.Points[len(curve.Points)-1]
		p := farm.DemandPoint{
			Power: sum,
			Loss:  sumLoss,
			Step:  farm.StepKey{Loss: d.PredictedLoss, Idx: k, Proc: d.CPU},
		}
		if p.Loss < prev.Loss {
			p.Loss = prev.Loss // absorb float jitter; model loss is monotone in frequency
		}
		if p.Power < prev.Power {
			curve.Points = append(curve.Points, p)
		}
	}
	return curve, desired, nil
}

// UniformLoss predicts the aggregate performance loss of pinning every
// processor at one table index — the uniform-slowdown baseline the farm
// experiment compares against. Idle and unobserved processors contribute
// zero, exactly as in the demand curve and Step 2.
func (c *Core) UniformLoss(inputs []ProcInput, fi int) (float64, error) {
	if fi < 0 || fi >= c.cfg.Table.Len() {
		return 0, fmt.Errorf("cluster: uniform index %d outside table of %d points", fi, c.cfg.Table.Len())
	}
	if err := c.begin(inputs); err != nil {
		return 0, err
	}
	grid := c.pass.Grid()
	var sum float64
	for i := range inputs {
		if grid.Valid(i) {
			sum += grid.Loss(i, fi)
		}
	}
	return sum, nil
}

// Schedule runs Steps 1–3 across the given processors under the budget.
// Step 1 picks each processor's ε-constrained desire (minimum setting for
// idle processors when the idle signal is enabled, f_max when no counter
// data is available); Step 2 demotes least-loss processors until the
// aggregate table power fits the budget; Step 3 assigns minimum voltages.
// The returned Assignments and Demotions are freshly allocated (callers
// keep them past later passes); the intermediate per-frequency work runs
// on the core's reusable scratch.
func (c *Core) Schedule(inputs []ProcInput, budget units.Power) (PassResult, error) {
	if err := c.begin(inputs); err != nil {
		return PassResult{}, err
	}
	p, table := c.pass, c.cfg.Table
	met := p.Fit(budget)

	n := len(inputs)
	desired, actual := p.Desired(), p.Actual()
	assignments := make([]Assignment, n)
	predIPC := make([]float64, n)
	predValid := make([]bool, n)
	for i, in := range inputs {
		a := Assignment{
			Proc:    in.Proc,
			Desired: table.FrequencyAtIndex(desired[i]),
			Actual:  table.FrequencyAtIndex(actual[i]),
			Voltage: p.Voltage(i),
			Idle:    in.Idle,
		}
		a.PredictedLoss, predIPC[i], predValid[i] = p.Predicted(i)
		assignments[i] = a
	}
	res := PassResult{
		Assignments: assignments,
		TablePower:  p.TablePower(),
		BudgetMet:   met,
		// The assignment/voltage loop above is the Step-3 share of the pass.
		Timings:   p.Finish(),
		predIPC:   predIPC,
		predValid: predValid,
	}
	if demotions := p.Demotions(); len(demotions) > 0 {
		res.Demotions = append([]fvsst.Demotion(nil), demotions...)
	}
	return res, nil
}

// PassEvent renders a pass as the obs.EventSchedule both cluster backends
// emit: node-labelled CPU traces with predictions, and Step-2 demotions
// translated from flat proc indexes back to (node, cpu) addresses.
func PassEvent(at float64, trigger string, budget units.Power, inputs []ProcInput, res PassResult) obs.Event {
	ev := obs.Event{
		Type:         obs.EventSchedule,
		At:           at,
		Trigger:      trigger,
		BudgetW:      budget.W(),
		TablePowerW:  res.TablePower.W(),
		HeadroomW:    budget.W() - res.TablePower.W(),
		BudgetMissed: !res.BudgetMet,
		CPUs:         make([]obs.CPUTrace, len(res.Assignments)),
	}
	for i, a := range res.Assignments {
		ct := obs.CPUTrace{
			CPU:        a.Proc.CPU,
			Node:       inputs[i].Node,
			Idle:       a.Idle,
			DesiredMHz: a.Desired.MHz(),
			ActualMHz:  a.Actual.MHz(),
			VoltageV:   a.Voltage.V(),
		}
		if res.predValid != nil && res.predValid[i] {
			ct.PredictedLoss = a.PredictedLoss
			ct.PredictedIPC = res.predIPC[i]
		}
		if o := inputs[i].Obs; o != nil {
			d := o.Delta
			ct.Obs = &obs.ObsTrace{
				WindowS:      d.Window,
				Instructions: d.Instructions,
				Cycles:       d.Cycles,
				HaltedCycles: d.HaltedCycles,
				L2Refs:       d.L2Refs,
				L3Refs:       d.L3Refs,
				MemRefs:      d.MemRefs,
				FreqHz:       o.Freq.Hz(),
			}
		}
		ev.CPUs[i] = ct
	}
	for _, dm := range res.Demotions {
		in := inputs[dm.CPU]
		ev.Demotions = append(ev.Demotions, obs.DemotionTrace{
			CPU:           in.Proc.CPU,
			Node:          in.Node,
			FromMHz:       dm.From.MHz(),
			ToMHz:         dm.To.MHz(),
			PredictedLoss: dm.PredictedLoss,
		})
	}
	return ev
}
