package fvsst

import (
	"fmt"
	"time"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/memhier"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// Target is the hardware surface the scheduler controls: counter reads,
// frequency actuation and the idle indicator. machine.Machine implements
// it; on real hardware it would be the kernel's PMC and throttling
// interfaces.
type Target interface {
	counters.Reader
	SetFrequency(cpu int, f units.Frequency) error
	EffectiveFrequency(cpu int) units.Frequency
	IsIdle(cpu int) bool
	Now() float64
}

// Overhead models the daemon's own cost (Figure 4): seconds charged per
// counter collection per CPU and per scheduling pass, stolen from CPU 0,
// the processor the single-threaded daemon runs on.
type Overhead struct {
	CollectPerCPU float64
	SchedulePass  float64
}

// DefaultOverhead approximates the unoptimised prototype: ~60 µs per
// per-CPU counter read and ~400 µs per scheduling pass, totalling under 3%
// of a CPU at T = 100 ms (§8.1).
func DefaultOverhead() Overhead {
	return Overhead{CollectPerCPU: 60e-6, SchedulePass: 400e-6}
}

// Config parameterises the scheduler.
type Config struct {
	Table *power.Table
	// Epsilon is the acceptable predicted performance loss. It must
	// exceed the minimum per-step loss of the frequency set or Step 1
	// degenerates to f_max everywhere (§5).
	Epsilon float64
	// SchedulePeriods is n: a scheduling pass runs every n collections
	// (T = n·t).
	SchedulePeriods int
	// UseIdleSignal enables the firmware/OS idle indicator: idle
	// processors go straight to the minimum frequency. Without it, a
	// hot-idling processor looks CPU-bound and is scheduled at maximum
	// frequency (§5, §7.1).
	UseIdleSignal bool
	// UseIdealFrequency replaces the Step 1 per-frequency scan with the
	// closed-form f_ideal of §5.
	UseIdealFrequency bool
	// Overhead is the daemon cost model; zero values disable it.
	Overhead Overhead
}

// DefaultConfig returns the prototype's parameters: the Table 1 operating
// points, ε = 5%, n = 10 (T = 100 ms at the machine's 10 ms dispatch period
// t, §8), idle signal off (the paper's prototype lacks it, §7.1).
func DefaultConfig() Config {
	return Config{
		Table:           power.PaperTable1(),
		Epsilon:         0.05,
		SchedulePeriods: 10,
		Overhead:        DefaultOverhead(),
	}
}

// Validate checks the configuration, including the ε-vs-frequency-step
// constraint §5 imposes.
func (c Config) Validate() error {
	if c.Table == nil {
		return fmt.Errorf("fvsst: operating-point table required")
	}
	if !(c.Epsilon > 0 && c.Epsilon < 1) {
		return fmt.Errorf("fvsst: epsilon %v out of (0,1)", c.Epsilon)
	}
	if c.SchedulePeriods < 1 {
		return fmt.Errorf("fvsst: schedule periods %d must be ≥ 1", c.SchedulePeriods)
	}
	if c.Overhead.CollectPerCPU < 0 || c.Overhead.SchedulePass < 0 {
		return fmt.Errorf("fvsst: negative overhead")
	}
	return nil
}

// Assignment is the scheduler's decision for one processor.
type Assignment struct {
	CPU int
	// Desired is the Step 1 ε-constrained frequency (the paper's Figure 9
	// "desired frequency").
	Desired units.Frequency
	// Actual is the frequency after the Step 2 budget fit — what the
	// processor is set to.
	Actual units.Frequency
	// Voltage is the Step 3 minimum voltage for Actual.
	Voltage units.Voltage
	// PredictedLoss is the predicted performance loss at Actual versus
	// f_max.
	PredictedLoss float64
	// PredictedIPC is the predicted IPC at Actual.
	PredictedIPC float64
	// ObservedIPC is the window's measured IPC (for the Table 2 study).
	ObservedIPC float64
	// PredictionError is the relative error of the *previous* pass's IPC
	// prediction against this window's observation ((obs − pred)/pred) —
	// the Table 2 accuracy quantity computed online, one period late.
	// Meaningful only when PredictionValid: the processor must have been
	// busy and predicted on both passes.
	PredictionError float64
	PredictionValid bool
	// Idle reports whether the processor was treated as idle.
	Idle bool
}

// Decision is one complete scheduling pass.
type Decision struct {
	At          float64
	Trigger     string
	Budget      units.Power
	TablePower  units.Power
	BudgetMet   bool
	Assignments []Assignment
	// Demotions is the ordered list of Step-2 reductions this pass took
	// to fit the budget — why Actual sits below Desired where it does.
	Demotions []Demotion
}

// Scheduler is the fvsst daemon. It is single-threaded like the prototype:
// Collect and Schedule are called from the simulation loop.
type Scheduler struct {
	cfg       Config
	target    Target
	sampler   *counters.Sampler
	predictor perfmodel.Predictor
	budget    units.Power
	// cadence owns the T = n·t rule: every n-th Collect makes a
	// scheduling pass due.
	cadence engine.Cadence
	// lastPredIPC/lastPredValid hold each CPU's previous-pass IPC
	// prediction so the next pass can score it against observation.
	lastPredIPC   []float64
	lastPredValid []bool
	// sink, when non-nil, receives one obs.EventSchedule per pass plus
	// the pass's span tree (root + grid-fill/step1/step2/step3/actuate).
	sink obs.Sink
	// passID counts scheduling passes from the engine clock epoch and
	// stamps each pass's event and spans (obs.Event.PassID).
	passID uint64

	// pass runs Figure 3 and owns the grid, index and demotion scratch
	// (see docs/engine.md for the ownership rules); scratchAssign is the
	// scheduler's own reusable read-back, so the steady-state hot path
	// performs no allocation.
	pass          *Pass
	scratchAssign []Assignment
	// last is the latest complete pass, aliasing the scratch the next pass
	// reuses; no older pass is kept (a pass's record is its event).
	last   Decision
	lastOK bool
}

// New builds a scheduler over the target with an initial processor power
// budget.
func New(cfg Config, target Target, budget units.Power) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if target == nil {
		return nil, fmt.Errorf("fvsst: nil target")
	}
	if !(budget > 0) {
		return nil, fmt.Errorf("fvsst: budget %v must be positive", budget)
	}
	pred, err := perfmodel.New(memhier.P630())
	if err != nil {
		return nil, err
	}
	sampler, err := counters.NewSampler(target, 4*cfg.SchedulePeriods)
	if err != nil {
		return nil, err
	}
	cadence, err := engine.NewCadence(cfg.SchedulePeriods)
	if err != nil {
		return nil, err
	}
	n := target.NumCPUs()
	s := &Scheduler{
		cfg:           cfg,
		target:        target,
		sampler:       sampler,
		predictor:     pred,
		budget:        budget,
		cadence:       cadence,
		lastPredIPC:   make([]float64, n),
		lastPredValid: make([]bool, n),
		pass:          NewPass(cfg),
		scratchAssign: make([]Assignment, n),
	}
	return s, nil
}

// SetSink attaches an observability sink that receives one structured
// trace event per scheduling pass (see internal/obs). A nil sink — the
// default — disables tracing; the only hot-path cost left is a pointer
// test, proven by the sink benchmarks in bench_test.go.
func (s *Scheduler) SetSink(sink obs.Sink) {
	s.sink = sink
	s.pass.SetTiming(sink != nil)
}

// SetDecisionLogging has no effect: the scheduler keeps no pass history.
// It stays only while the benchmark's probes still call it.
func (s *Scheduler) SetDecisionLogging(bool) {}

// Config returns the scheduler's configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Budget returns the current processor power budget.
func (s *Scheduler) Budget() units.Power { return s.budget }

// SetBudget changes the global power limit — trigger 1 of §5. It does not
// itself reschedule; callers follow with Schedule("budget-change").
func (s *Scheduler) SetBudget(p units.Power) error {
	if !(p > 0) {
		return fmt.Errorf("fvsst: budget %v must be positive", p)
	}
	s.budget = p
	return nil
}

// Collect samples the counters of every processor once (one dispatch
// period t). It returns true when a scheduling pass is due (every n-th
// collection).
func (s *Scheduler) Collect() (due bool, err error) {
	if err := s.sampler.Collect(); err != nil {
		return false, err
	}
	return s.cadence.Tick(), nil
}

// observationFor builds the predictor observation for cpu from the last
// scheduling window. ok is false when the window contains no usable work.
func (s *Scheduler) observationFor(cpu int) (perfmodel.Observation, bool) {
	return perfmodel.ObservationFrom(s.sampler.WindowAggregate(cpu, s.cfg.SchedulePeriods))
}

// Schedule runs one full pass of the Figure 3 algorithm and actuates the
// result. trigger labels the cause in the pass's event ("timer",
// "budget-change", "idle-transition").
//
// The returned Decision aliases the scheduler's scratch and is valid until
// the next pass; a caller that keeps passes reads their events.
//
// The steps themselves run in the scheduler's Pass, in operating-point
// index space over its prediction grid. What is the scheduler's own is
// around them: which processors count as idle, how a counter window becomes
// a decomposition, actuation, scoring the previous prediction, and the
// pass's event.
func (s *Scheduler) Schedule(trigger string) (Decision, error) {
	s.passID++
	// The pass overwrites the scratch the last Decision aliases.
	s.lastOK = false
	// trace gates every clock read and span emission: with no sink the
	// pass performs no timing work (TestScheduleZeroAlloc pins this path).
	trace := s.sink != nil
	var passStart time.Time
	if trace {
		passStart = time.Now()
	}
	p := s.pass
	assign := s.scratchAssign[:s.target.NumCPUs()]
	p.Begin(len(assign))

	// Step 1: ε-constrained frequency per processor.
	for cpu := range assign {
		assign[cpu] = Assignment{CPU: cpu}
		if s.cfg.UseIdleSignal && s.target.IsIdle(cpu) {
			assign[cpu].Idle = true
			p.Idle(cpu)
			continue
		}
		obsv, ok := s.observationFor(cpu)
		if !ok {
			p.Unobserved(cpu)
			continue
		}
		p.StartFill()
		dec, err := s.predictor.Decompose(obsv)
		if err != nil {
			return Decision{}, fmt.Errorf("fvsst: cpu %d: %w", cpu, err)
		}
		if err := p.Observe(cpu, dec); err != nil {
			return Decision{}, err
		}
		assign[cpu].ObservedIPC = obsv.Delta.IPC()
	}

	// Step 2: fit the aggregate power to the budget; the pass records every
	// reduction for the decision's demotion attribution.
	met := p.Fit(s.budget)

	// Step 3: voltages.
	for cpu := range assign {
		assign[cpu].Voltage = p.Voltage(cpu)
	}
	steps := p.Finish()

	// Actuate and emit.
	var actStart time.Time
	if trace {
		actStart = time.Now()
	}
	desired := p.Desired()
	for cpu, ai := range p.Actual() {
		a := &assign[cpu]
		a.Desired = s.cfg.Table.FrequencyAtIndex(desired[cpu])
		a.Actual = s.cfg.Table.FrequencyAtIndex(ai)
		if err := s.target.SetFrequency(cpu, a.Actual); err != nil {
			return Decision{}, fmt.Errorf("fvsst: actuate cpu %d: %w", cpu, err)
		}
		// Score the previous pass's prediction against the window that
		// just elapsed, then bank this pass's prediction for the next.
		var predicted bool
		a.PredictedLoss, a.PredictedIPC, predicted = p.Predicted(cpu)
		if predicted && s.lastPredValid[cpu] && s.lastPredIPC[cpu] > 0 {
			a.PredictionError = (a.ObservedIPC - s.lastPredIPC[cpu]) / s.lastPredIPC[cpu]
			a.PredictionValid = true
		}
		s.lastPredIPC[cpu], s.lastPredValid[cpu] = a.PredictedIPC, predicted
	}
	d := Decision{
		At:          s.target.Now(),
		Trigger:     trigger,
		Budget:      s.budget,
		TablePower:  p.TablePower(),
		BudgetMet:   met,
		Assignments: assign,
	}
	if demotions := p.Demotions(); len(demotions) > 0 {
		d.Demotions = demotions
	}
	// A sink that reads LastDecision on the pass's event sees this pass.
	s.last, s.lastOK = d, true
	if trace {
		actDur := time.Since(actStart)
		ev := d.Event()
		ev.PassID = s.passID
		s.sink.Emit(ev)
		// Span tree: the grid fill (decompose + sweep) is broken out of
		// step1 so children stay disjoint.
		EmitStepSpans(s.sink, d.At, s.passID, steps)
		s.sink.Emit(obs.SpanEvent(d.At, s.passID, "", obs.SpanActuate, obs.SpanPass, actDur.Seconds()))
		s.sink.Emit(obs.SpanEvent(d.At, s.passID, "", obs.SpanPass, "", time.Since(passStart).Seconds()))
	}
	return d, nil
}

// LastDecision returns the most recent pass and true, or false before the
// first pass completes and after a pass that failed. Like Schedule's
// result, it aliases the scheduler's scratch until the next pass.
func (s *Scheduler) LastDecision() (Decision, bool) {
	return s.last, s.lastOK
}
