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
// counter collection per CPU and per scheduling pass, stolen from the CPU
// the daemon runs on.
type Overhead struct {
	CollectPerCPU float64
	SchedulePass  float64
	// DaemonCPU is the processor the single-threaded daemon runs on.
	DaemonCPU int
	// Distributed models the §9 multi-threaded redesign ("two threads per
	// processor: one collects the counters at user level, the other
	// controls the throttling"): each CPU pays for its own collection and
	// an equal share of the scheduling pass, instead of the single daemon
	// CPU paying for everything.
	Distributed bool
}

// DefaultOverhead approximates the unoptimised prototype: ~60 µs per
// per-CPU counter read and ~400 µs per scheduling pass, totalling under 3%
// of a CPU at T = 100 ms (§8.1).
func DefaultOverhead() Overhead {
	return Overhead{CollectPerCPU: 60e-6, SchedulePass: 400e-6, DaemonCPU: 0}
}

// Config parameterises the scheduler.
type Config struct {
	Table *power.Table
	Hier  memhier.Hierarchy
	// Epsilon is the acceptable predicted performance loss. It must
	// exceed the minimum per-step loss of the frequency set or Step 1
	// degenerates to f_max everywhere (§5).
	Epsilon float64
	// SamplePeriod is the dispatch/collection period t in seconds.
	SamplePeriod float64
	// SchedulePeriods is n: a scheduling pass runs every n collections
	// (T = n·t).
	SchedulePeriods int
	// UseIdleSignal enables the firmware/OS idle indicator: idle
	// processors go straight to the minimum frequency. Without it, a
	// hot-idling processor looks CPU-bound and is scheduled at maximum
	// frequency (§5, §7.1).
	UseIdleSignal bool
	// UseHaltedCycles treats a window that is >90% halted as idle, the
	// alternative idle detection for halting processors.
	UseHaltedCycles bool
	// UseIdealFrequency replaces the Step 1 per-frequency scan with the
	// closed-form f_ideal of §5.
	UseIdealFrequency bool
	// UseTwoPointCalibration enables the §4.3-footnote calibration: when
	// the last two scheduling windows ran at different frequencies, the
	// decomposition is derived from the two (frequency, CPI) points
	// directly, without trusting the constant memory-latency assumption.
	UseTwoPointCalibration bool
	// LatencyBoundLo/Hi, when Hi > 0, enable the best/worst-case latency
	// bounds of reference [17]: Step 1 uses the *worst-case* (low-latency-
	// scale) decomposition for its ε-check, making frequency reductions
	// conservative.
	LatencyBoundLo float64
	LatencyBoundHi float64
	// DebouncePasses, when ≥ 2, requires a processor's ε-constrained
	// frequency to repeat for that many consecutive passes before the
	// scheduler actuates the change — a hysteresis knob that damps the
	// one-step flutter borderline workloads produce under measurement
	// noise (the same stability concern §6 addresses by making T a large
	// multiple of t). Power-limit compliance always wins: downward moves
	// demanded by Step 2 are never debounced.
	DebouncePasses int
	// VoltageTables optionally gives each processor its own voltage table
	// for Step 3, for machines with significant process variation (§5:
	// "the voltage table is different for each processor"). Length must
	// equal the target's CPU count; nil uses Table for every processor.
	VoltageTables []*power.Table
	// Overhead is the daemon cost model; zero values disable it.
	Overhead Overhead
}

// DefaultConfig returns the prototype's parameters: the Table 1 operating
// points, ε = 5%, t = 10 ms, T = 100 ms (§8), idle signal off (the paper's
// prototype lacks it, §7.1).
func DefaultConfig() Config {
	return Config{
		Table:           power.PaperTable1(),
		Hier:            memhier.P630(),
		Epsilon:         0.05,
		SamplePeriod:    0.010,
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
	if err := c.Hier.Validate(); err != nil {
		return err
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return fmt.Errorf("fvsst: epsilon %v out of (0,1)", c.Epsilon)
	}
	if c.SamplePeriod <= 0 {
		return fmt.Errorf("fvsst: sample period %v must be positive", c.SamplePeriod)
	}
	if c.SchedulePeriods < 1 {
		return fmt.Errorf("fvsst: schedule periods %d must be ≥ 1", c.SchedulePeriods)
	}
	if c.Overhead.CollectPerCPU < 0 || c.Overhead.SchedulePass < 0 {
		return fmt.Errorf("fvsst: negative overhead")
	}
	if c.LatencyBoundHi != 0 {
		if c.LatencyBoundLo <= 0 || c.LatencyBoundHi < c.LatencyBoundLo {
			return fmt.Errorf("fvsst: latency bounds %v..%v invalid", c.LatencyBoundLo, c.LatencyBoundHi)
		}
	}
	if c.DebouncePasses < 0 {
		return fmt.Errorf("fvsst: DebouncePasses %d must be non-negative", c.DebouncePasses)
	}
	return nil
}

// MinEpsilonFor returns the smallest usable ε for a frequency set on a
// pure-CPU workload: the relative size of the largest single frequency
// step. An ε below this pins CPU-bound work at f_max (which is correct)
// but also makes the ε bound unachievable for any lowering (§5: "its value
// must be greater than the minimum performance step").
func MinEpsilonFor(set units.FrequencySet) float64 {
	worst := 0.0
	for i := 1; i < len(set); i++ {
		step := float64(set[i]-set[i-1]) / float64(set[i])
		if step > worst {
			worst = step
		}
	}
	return worst
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
	set       units.FrequencySet
	decisions []Decision
	// cadence owns the T = n·t rule: every n-th Collect makes a
	// scheduling pass due.
	cadence engine.Cadence
	// prevObs holds the previous scheduling window per CPU for the
	// two-point calibration mode.
	prevObs   []perfmodel.Observation
	prevValid []bool
	// lastDesired/desireStreak back the debounce filter.
	lastDesired  []units.Frequency
	desireStreak []int
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

	// Per-pass scratch, valid for the duration of one Schedule call and
	// reused across passes so the steady-state hot path performs no
	// allocation (see docs/engine.md for the ownership rules). Frequencies
	// are handled as table indices: desiredIdx is Step 1's ε-constrained
	// setting, actualIdx the post-Step-2 setting.
	grid          perfmodel.PredGrid
	desiredIdx    []int
	actualIdx     []int
	observed      []float64
	obsOK         []bool
	idle          []bool
	volts         []units.Voltage
	scratchAssign []Assignment
	scratchDemo   []Demotion
	// logDecisions gates the decision log. On (the default) every pass
	// copies its assignments and demotions into a fresh Decision and
	// appends it; off, Schedule's Decision aliases the scratch buffers —
	// valid only until the next pass — and Decisions()/LastDecision see
	// nothing. Long-running daemons turn it off: an unbounded log is a
	// leak, and the append is the hot path's one remaining allocation.
	logDecisions bool
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
	if budget <= 0 {
		return nil, fmt.Errorf("fvsst: budget %v must be positive", budget)
	}
	pred, err := perfmodel.New(cfg.Hier)
	if err != nil {
		return nil, err
	}
	sampler, err := counters.NewSampler(target, 4*cfg.SchedulePeriods)
	if err != nil {
		return nil, err
	}
	if cfg.VoltageTables != nil && len(cfg.VoltageTables) != target.NumCPUs() {
		return nil, fmt.Errorf("fvsst: %d voltage tables for %d CPUs", len(cfg.VoltageTables), target.NumCPUs())
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
		set:           cfg.Table.Frequencies(),
		cadence:       cadence,
		prevObs:       make([]perfmodel.Observation, n),
		prevValid:     make([]bool, n),
		lastDesired:   make([]units.Frequency, n),
		desireStreak:  make([]int, n),
		lastPredIPC:   make([]float64, n),
		lastPredValid: make([]bool, n),
		desiredIdx:    make([]int, n),
		actualIdx:     make([]int, n),
		observed:      make([]float64, n),
		obsOK:         make([]bool, n),
		idle:          make([]bool, n),
		volts:         make([]units.Voltage, n),
		scratchAssign: make([]Assignment, n),
		logDecisions:  true,
	}
	s.grid.Reset(n, s.set)
	return s, nil
}

// SetSink attaches an observability sink that receives one structured
// trace event per scheduling pass (see internal/obs). A nil sink — the
// default — disables tracing; the only hot-path cost left is a pointer
// test, proven by the sink benchmarks in bench_test.go.
func (s *Scheduler) SetSink(sink obs.Sink) { s.sink = sink }

// SetDecisionLogging toggles the in-memory decision log (default on).
// With logging off the Decision returned by Schedule aliases the
// scheduler's reusable scratch — it is valid until the next pass and is
// never retained, so the steady-state Schedule path performs zero heap
// allocations — and Decisions()/LastDecision report nothing. Long-running
// deployments disable it: the log grows without bound.
func (s *Scheduler) SetDecisionLogging(on bool) { s.logDecisions = on }

// Config returns the scheduler's configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Budget returns the current processor power budget.
func (s *Scheduler) Budget() units.Power { return s.budget }

// SetBudget changes the global power limit — trigger 1 of §5. It does not
// itself reschedule; callers follow with Schedule("budget-change").
func (s *Scheduler) SetBudget(p units.Power) error {
	if p <= 0 {
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

// decompose derives the cycle decomposition for one CPU's window,
// honouring the configured calibration modes. The window is banked as the
// CPU's previous observation whether or not decomposition succeeds.
func (s *Scheduler) decompose(cpu int, obs perfmodel.Observation) (perfmodel.Decomposition, error) {
	dec, err := s.decomposeWindow(cpu, obs)
	s.prevObs[cpu] = obs
	s.prevValid[cpu] = true
	return dec, err
}

func (s *Scheduler) decomposeWindow(cpu int, obs perfmodel.Observation) (perfmodel.Decomposition, error) {
	if s.cfg.UseTwoPointCalibration && s.prevValid[cpu] {
		prev := s.prevObs[cpu]
		// Two usable points need meaningfully distinct frequencies or the
		// slope estimate blows up on noise.
		if prev.Freq > 0 && relDiff(prev.Freq.Hz(), obs.Freq.Hz()) > 0.02 {
			if dec, err := perfmodel.CalibrateTwoPoint(prev, obs); err == nil {
				return dec, nil
			}
			// Fall through to the single-point model on calibration error.
		}
	}
	if s.cfg.LatencyBoundHi > 0 {
		b, err := s.predictor.DecomposeWithBounds(obs, s.cfg.LatencyBoundLo, s.cfg.LatencyBoundHi)
		if err != nil {
			return perfmodel.Decomposition{}, err
		}
		// Worst case for scaling down: assume latencies at the low end of
		// the band, i.e. the workload is less memory-bound than nominal.
		return b.Worst, nil
	}
	return s.predictor.Decompose(obs)
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}

// isIdle decides whether cpu should be treated as idle under the
// configured detection mechanisms.
func (s *Scheduler) isIdle(cpu int) bool {
	if s.cfg.UseIdleSignal && s.target.IsIdle(cpu) {
		return true
	}
	if s.cfg.UseHaltedCycles {
		delta := s.sampler.WindowAggregate(cpu, s.cfg.SchedulePeriods)
		if delta.HaltedFraction() > 0.9 {
			return true
		}
	}
	return false
}

// resetScratch prepares the per-pass buffers for a pass over n processors,
// reusing their backing arrays.
func (s *Scheduler) resetScratch(n int) {
	s.grid.Reset(n, s.set)
	if cap(s.desiredIdx) < n {
		s.desiredIdx = make([]int, n)
		s.actualIdx = make([]int, n)
		s.observed = make([]float64, n)
		s.obsOK = make([]bool, n)
		s.idle = make([]bool, n)
		s.volts = make([]units.Voltage, n)
		s.scratchAssign = make([]Assignment, n)
	}
	s.desiredIdx = s.desiredIdx[:n]
	s.actualIdx = s.actualIdx[:n]
	s.observed = s.observed[:n]
	s.obsOK = s.obsOK[:n]
	s.idle = s.idle[:n]
	s.volts = s.volts[:n]
	s.scratchAssign = s.scratchAssign[:n]
	for i := 0; i < n; i++ {
		s.observed[i] = 0
		s.obsOK[i] = false
		s.idle[i] = false
	}
}

// Schedule runs one full pass of the Figure 3 algorithm and actuates the
// result. trigger labels the cause in the decision log ("timer",
// "budget-change", "idle-transition").
//
// The pass works in operating-point index space over a per-scheduler
// prediction grid: each busy CPU's frequency sweep is evaluated exactly
// once (perfmodel.PredGrid) and Step 1, Step 2 and the decision
// attribution all read from it. The decisions are identical to the direct
// per-frequency computation — the grid stores the same bit patterns.
func (s *Scheduler) Schedule(trigger string) (Decision, error) {
	s.passID++
	// trace gates every clock read and span emission: with no sink the
	// pass performs no timing work (TestScheduleZeroAlloc pins this path).
	trace := s.sink != nil
	var passStart time.Time
	var fillDur time.Duration
	if trace {
		passStart = time.Now()
	}
	n := s.target.NumCPUs()
	s.resetScratch(n)
	nf := s.grid.NumFreqs()

	// Step 1: ε-constrained frequency per processor.
	for cpu := 0; cpu < n; cpu++ {
		if s.isIdle(cpu) {
			s.idle[cpu] = true
			s.desiredIdx[cpu] = 0 // set minimum
			continue
		}
		obsv, ok := s.observationFor(cpu)
		if !ok {
			// No usable window (just started, or fully throttled):
			// schedule conservatively at maximum.
			s.desiredIdx[cpu] = nf - 1
			continue
		}
		var fillStart time.Time
		if trace {
			fillStart = time.Now()
		}
		dec, err := s.decompose(cpu, obsv)
		if err != nil {
			return Decision{}, fmt.Errorf("fvsst: cpu %d: %w", cpu, err)
		}
		s.grid.Fill(cpu, dec)
		if trace {
			fillDur += time.Since(fillStart)
		}
		s.observed[cpu] = obsv.Delta.IPC()
		s.obsOK[cpu] = true
		if s.cfg.UseIdealFrequency {
			f, err := IdealEpsilonFrequency(dec, s.set, s.cfg.Epsilon)
			if err != nil {
				return Decision{}, err
			}
			s.desiredIdx[cpu] = s.cfg.Table.IndexOf(f)
		} else {
			s.desiredIdx[cpu] = EpsilonIndexGrid(&s.grid, cpu, s.cfg.Epsilon)
		}
	}

	// Debounce: a new ε-constrained frequency must persist for k passes
	// before the scheduler acts on it; until then the processor holds its
	// current setting. Step 2's forced downward moves are applied after
	// this filter and are never debounced.
	if k := s.cfg.DebouncePasses; k >= 2 {
		for cpu := 0; cpu < n; cpu++ {
			df := s.set[s.desiredIdx[cpu]]
			if df == s.lastDesired[cpu] {
				s.desireStreak[cpu]++
			} else {
				s.lastDesired[cpu] = df
				s.desireStreak[cpu] = 1
			}
			cur := s.set.ClampTo(s.target.EffectiveFrequency(cpu))
			if df != cur && s.desireStreak[cpu] < k {
				s.desiredIdx[cpu] = s.cfg.Table.IndexOf(cur)
			}
		}
	}

	// Step 2: fit the aggregate power to the budget, recording every
	// reduction for the decision's demotion attribution.
	var step2Start time.Time
	if trace {
		step2Start = time.Now()
	}
	copy(s.actualIdx, s.desiredIdx)
	demotions, met := FitToBudgetGrid(&s.grid, s.actualIdx, s.cfg.Table, s.budget, s.scratchDemo[:0])
	s.scratchDemo = demotions[:0] // keep any grown backing array
	var step3Start time.Time
	if trace {
		step3Start = time.Now()
	}

	// Step 3: voltages — per-CPU tables when the machine has process
	// variation, otherwise index math on the shared table.
	for cpu := 0; cpu < n; cpu++ {
		if s.cfg.VoltageTables != nil {
			v, err := s.cfg.VoltageTables[cpu].MinVoltage(s.cfg.Table.FrequencyAtIndex(s.actualIdx[cpu]))
			if err != nil {
				return Decision{}, fmt.Errorf("fvsst: voltage for cpu %d: %w", cpu, err)
			}
			s.volts[cpu] = v
		} else {
			s.volts[cpu] = s.cfg.Table.VoltageAtIndex(s.actualIdx[cpu])
		}
	}

	// Actuate and log.
	var actStart time.Time
	if trace {
		actStart = time.Now()
	}
	var tablePower units.Power
	for cpu := 0; cpu < n; cpu++ {
		ai := s.actualIdx[cpu]
		actualF := s.cfg.Table.FrequencyAtIndex(ai)
		tablePower += s.cfg.Table.PowerAtIndex(ai)
		if err := s.target.SetFrequency(cpu, actualF); err != nil {
			return Decision{}, fmt.Errorf("fvsst: actuate cpu %d: %w", cpu, err)
		}
		a := Assignment{
			CPU:     cpu,
			Desired: s.cfg.Table.FrequencyAtIndex(s.desiredIdx[cpu]),
			Actual:  actualF,
			Voltage: s.volts[cpu],
			Idle:    s.idle[cpu],
		}
		if s.grid.Valid(cpu) {
			a.PredictedLoss = s.grid.Loss(cpu, ai)
			a.PredictedIPC = s.grid.IPC(cpu, ai)
			a.ObservedIPC = s.observed[cpu]
		}
		// Score the previous pass's prediction against the window that
		// just elapsed, then bank this pass's prediction for the next.
		if s.obsOK[cpu] && s.lastPredValid[cpu] && s.lastPredIPC[cpu] > 0 {
			a.PredictionError = (s.observed[cpu] - s.lastPredIPC[cpu]) / s.lastPredIPC[cpu]
			a.PredictionValid = true
		}
		if s.grid.Valid(cpu) {
			s.lastPredIPC[cpu] = a.PredictedIPC
			s.lastPredValid[cpu] = true
		} else {
			s.lastPredValid[cpu] = false
		}
		s.scratchAssign[cpu] = a
	}
	d := Decision{
		At:         s.target.Now(),
		Trigger:    trigger,
		Budget:     s.budget,
		TablePower: tablePower,
		BudgetMet:  met,
	}
	if s.logDecisions {
		d.Assignments = append([]Assignment(nil), s.scratchAssign...)
		if len(demotions) > 0 {
			d.Demotions = append([]Demotion(nil), demotions...)
		}
		s.decisions = append(s.decisions, d)
	} else {
		d.Assignments = s.scratchAssign
		if len(demotions) > 0 {
			d.Demotions = demotions
		}
	}
	if trace {
		actDur := time.Since(actStart)
		ev := d.Event()
		ev.PassID = s.passID
		s.sink.Emit(ev)
		// Span tree: debounce time rides inside step1's remainder; the
		// grid fill (decompose + sweep) is broken out so children stay
		// disjoint.
		at := d.At
		s.sink.Emit(obs.SpanEvent(at, s.passID, "", obs.SpanGridFill, obs.SpanPass, fillDur.Seconds()))
		s.sink.Emit(obs.SpanEvent(at, s.passID, "", obs.SpanStepOne, obs.SpanPass, (step2Start.Sub(passStart) - fillDur).Seconds()))
		s.sink.Emit(obs.SpanEvent(at, s.passID, "", obs.SpanStepTwo, obs.SpanPass, step3Start.Sub(step2Start).Seconds()))
		s.sink.Emit(obs.SpanEvent(at, s.passID, "", obs.SpanStepThree, obs.SpanPass, actStart.Sub(step3Start).Seconds()))
		s.sink.Emit(obs.SpanEvent(at, s.passID, "", obs.SpanActuate, obs.SpanPass, actDur.Seconds()))
		s.sink.Emit(obs.SpanEvent(at, s.passID, "", obs.SpanPass, "", time.Since(passStart).Seconds()))
	}
	return d, nil
}

// Decisions returns the full decision log.
func (s *Scheduler) Decisions() []Decision {
	out := make([]Decision, len(s.decisions))
	copy(out, s.decisions)
	return out
}

// LastDecision returns the most recent decision and true, or false when no
// pass has run yet.
func (s *Scheduler) LastDecision() (Decision, bool) {
	if len(s.decisions) == 0 {
		return Decision{}, false
	}
	return s.decisions[len(s.decisions)-1], true
}
