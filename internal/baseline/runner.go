package baseline

import (
	"fmt"

	"repro/internal/counters"
	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

// Runner drives any Policy against a simulated machine with the same
// sample/decide/actuate cadence the fvsst driver uses, so the comparator
// policies can be evaluated end to end (not just analytically): counters
// are sampled every quantum, the policy runs every n-th quantum, and its
// assignment is actuated through the machine's throttles. A zero assigned
// frequency powers the processor down (the machine retires nothing and
// draws nothing at frequency 0).
type Runner struct {
	M      *machine.Machine
	Policy Policy
	// Budget is the processor power budget handed to the policy.
	Budget units.Power
	// Epsilon is forwarded to policies that take it (the fvsst adapter).
	Epsilon float64
	// SchedulePeriods is n (T = n·quantum).
	SchedulePeriods int
	// UseIdleSignal forwards the machine's idle indicator to the policy;
	// off by default, like the paper's prototype (§7.1).
	UseIdleSignal bool

	sampler   *counters.Sampler
	predictor perfmodel.Predictor
	collects  int
	started   bool
}

// NewRunner wires a policy to a machine.
func NewRunner(m *machine.Machine, pol Policy, budget units.Power) (*Runner, error) {
	if m == nil || pol == nil {
		return nil, fmt.Errorf("baseline: nil machine or policy")
	}
	if budget <= 0 {
		return nil, fmt.Errorf("baseline: budget %v must be positive", budget)
	}
	sampler, err := counters.NewSampler(m, 64)
	if err != nil {
		return nil, err
	}
	pred, err := perfmodel.New(m.Config().Hier)
	if err != nil {
		return nil, err
	}
	return &Runner{
		M:               m,
		Policy:          pol,
		Budget:          budget,
		Epsilon:         0.05,
		SchedulePeriods: 10,
		sampler:         sampler,
		predictor:       pred,
	}, nil
}

// Step advances the machine one quantum and reschedules when due.
func (r *Runner) Step() error {
	if !r.started {
		r.started = true
		if err := r.schedule(); err != nil {
			return err
		}
	}
	if err := r.M.StepQuantum(); err != nil {
		return err
	}
	if err := r.sampler.Collect(); err != nil {
		return err
	}
	r.collects++
	if r.collects%r.SchedulePeriods == 0 {
		return r.schedule()
	}
	return nil
}

// schedule builds the policy input from the latest window and actuates the
// assignment.
func (r *Runner) schedule() error {
	n := r.M.NumCPUs()
	in := Input{
		Decs:    make([]*perfmodel.Decomposition, n),
		Idle:    make([]bool, n),
		Util:    make([]float64, n),
		Table:   r.M.Config().Table,
		Budget:  r.Budget,
		Epsilon: r.Epsilon,
	}
	for cpu := 0; cpu < n; cpu++ {
		if r.UseIdleSignal {
			in.Idle[cpu] = r.M.IsIdle(cpu)
		}
		delta := r.sampler.WindowAggregate(cpu, r.SchedulePeriods)
		if in.Idle[cpu] {
			in.Util[cpu] = 0
		} else {
			// Utilisation as a simple non-halted share: hot-idle platforms
			// report 1 unless the idle flag is set, reproducing the §3.1
			// blindness of utilisation-driven schemes.
			in.Util[cpu] = 1 - delta.HaltedFraction()
		}
		o, ok := perfmodel.ObservationFrom(delta)
		if !ok {
			continue
		}
		dec, err := r.predictor.Decompose(o)
		if err != nil {
			continue // unusable window; policy sees nil
		}
		in.Decs[cpu] = &dec
	}
	assigned, err := r.Policy.Assign(in)
	if err != nil {
		return fmt.Errorf("baseline: %s: %w", r.Policy.Name(), err)
	}
	if len(assigned) != n {
		return fmt.Errorf("baseline: %s returned %d assignments for %d CPUs", r.Policy.Name(), len(assigned), n)
	}
	for cpu, f := range assigned {
		if err := r.M.SetFrequency(cpu, f); err != nil {
			return fmt.Errorf("baseline: actuate cpu %d: %w", cpu, err)
		}
	}
	return nil
}

// Run advances until simulation time t.
func (r *Runner) Run(until float64) error {
	for r.M.Now() < until {
		if err := r.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntilAllDone advances until every job completes or the deadline
// passes.
func (r *Runner) RunUntilAllDone(deadline float64) (bool, error) {
	for r.M.Now() < deadline {
		if r.M.AllJobsDone() {
			return true, nil
		}
		if err := r.Step(); err != nil {
			return false, err
		}
	}
	return r.M.AllJobsDone(), nil
}

// Compile-time check: the machine satisfies the fvsst target surface the
// runner mirrors.
var _ fvsst.Target = (*machine.Machine)(nil)
