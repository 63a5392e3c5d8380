// Package machine is the simulated SMP node that stands in for the paper's
// 4-way Power4+ pSeries p630. It executes workload programs in dispatch
// quanta, maintains per-processor performance counters, actuates frequency
// through the throttle model, accounts power from the operating-point
// table, and exposes exactly the observation/actuation surface the fvsst
// daemon had on real hardware:
//
//   - counters.Reader (read the PMCs of every CPU),
//   - SetFrequency (throttle a CPU to an effective frequency),
//   - IsIdle (the firmware idle indicator of §5),
//   - measured total power.
//
// The ground-truth execution model deliberately includes effects the
// predictor cannot see — non-memory stalls, shared-L2 contention between
// core pairs, and memory-latency jitter — because those gaps are what
// produce the predictor error the paper quantifies in Table 2.
package machine

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/memhier"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

// The platform constants: the service times of the p630's memory
// hierarchy in seconds, the post-L1 reference rate (refs/s) at which a
// partner core saturates the shared L2, and the non-processor system power
// of the §2 breakdown.
var (
	p630L2, p630L3, p630Mem = memhier.P630().ServiceTimes()
	nonCPU                  = power.MotivatingSystem().Base
)

const contentionSatRefs = 5e6

// P630ThrottleSteps is the p630's fetch-throttle resolution, the
// ThrottleSteps of P630Config.
const P630ThrottleSteps = 100

// IdleMode selects how a processor with no runnable work behaves.
type IdleMode int

const (
	// IdleHot runs the Power4+'s tight CPU-intensive idle loop (IPC ≈
	// 1.3), which looks like real work to the counters — the pathology
	// that motivates the idle indicator (§5, §7.1).
	IdleHot IdleMode = iota
	// IdleHalt models a processor that halts when idle and counts halted
	// cycles, making an explicit idle indicator unnecessary.
	IdleHalt
)

// Config describes the machine to simulate.
type Config struct {
	Name    string
	NumCPUs int
	// Table is the operating-point table (frequency/voltage/power) the
	// machine's power draw follows.
	Table *power.Table
	// Quantum is the dispatch period t in seconds (10 ms on the paper's
	// Linux 2.6 platform; smaller values interfere with the OS quantum).
	Quantum float64
	// ThrottleSteps/Settle configure the fetch-throttle actuator.
	ThrottleSteps  int
	ThrottleSettle float64
	// Idle selects hot-loop or halting idle.
	Idle IdleMode
	// Contention configures shared-L2 interference between core pairs.
	Contention memhier.Contention
	// LatencyJitterSigma is the per-quantum relative σ of true memory
	// latency around nominal. The predictor assumes constant latency.
	LatencyJitterSigma float64
	// MonteCarloExec switches execution from the closed-form analytic CPI
	// to per-block stochastic reference draws (see montecarlo.go): slower
	// but with execution variance emerging from miss discreteness.
	MonteCarloExec bool
	// MeterNoiseSigma is read by nothing: the scheduler checks its budget
	// against table power, never a sensor reading. It stays only because
	// bench/probes.go sets it.
	MeterNoiseSigma float64
	Seed            int64
}

// P630Config returns the paper's experimental platform: 4 CPUs, the Table 1
// operating points, 10 ms dispatch quanta and hot idle. The memory
// hierarchy, fetch throttling and the §2 non-CPU power are fixed.
func P630Config() Config {
	return Config{
		Name:               "p630",
		NumCPUs:            4,
		Table:              power.PaperTable1(),
		Quantum:            0.010,
		ThrottleSteps:      P630ThrottleSteps,
		ThrottleSettle:     0.0005,
		Idle:               IdleHot,
		Contention:         memhier.Contention{MaxInflation: 1.25},
		LatencyJitterSigma: 0.03,
		Seed:               1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumCPUs <= 0 {
		return fmt.Errorf("machine: NumCPUs %d must be positive", c.NumCPUs)
	}
	if c.Table == nil {
		return fmt.Errorf("machine: operating-point table required")
	}
	if c.Quantum <= 0 {
		return fmt.Errorf("machine: quantum %v must be positive", c.Quantum)
	}
	if c.ThrottleSteps < 1 {
		return fmt.Errorf("machine: throttle steps %d must be ≥ 1", c.ThrottleSteps)
	}
	if !(c.ThrottleSettle >= 0) {
		return fmt.Errorf("machine: throttle settle time %v must be non-negative", c.ThrottleSettle)
	}
	if c.LatencyJitterSigma < 0 || c.LatencyJitterSigma > 0.5 {
		return fmt.Errorf("machine: latency jitter %v out of [0,0.5]", c.LatencyJitterSigma)
	}
	return nil
}

// JobCompletion records one program finishing on a CPU.
type JobCompletion struct {
	CPU     int
	Program string
	// At is the simulation time of completion in seconds.
	At float64
}

// QuantumStats summarises what one CPU did in the latest quantum.
type QuantumStats struct {
	Freq         units.Frequency
	Instructions uint64
	Cycles       uint64
	Idle         bool
	// PostL1Rate is the post-L1 reference rate in refs/s, used for
	// contention coupling and diagnostics.
	PostL1Rate float64
}

type cpu struct {
	mix        *workload.Mix
	throt      *throttle
	totals     counters.Sample
	stolenDebt float64 // seconds of daemon time to steal from upcoming quanta
	idleNow    bool
	idleCursor *workload.Cursor
	last       QuantumStats
	// powF/powP memoise CPUPower: the table power powP at the non-zero
	// frequency powF it was last looked up for.
	powF units.Frequency
	powP units.Power
}

// Machine is the running simulator. It is not safe for concurrent use; the
// simulation is single-threaded by design (deterministic).
type Machine struct {
	cfg  Config
	cpus []*cpu
	// clock is the machine's simulated time source, advancing one dispatch
	// quantum per Step.
	clock engine.SimClock
	// rng is built by random on the first draw; only latency jitter and
	// Monte-Carlo execution ever draw.
	rng *rand.Rand
	// mcExp holds each CPU's exp(−λ) memos for its L2, L3 and memory
	// draws; expMemos builds it on the first Monte-Carlo block.
	mcExp  [][3]expMemo
	energy power.EnergyMeter
	// cpuEnergy integrates processor-only energy, the quantity Table 3
	// normalises.
	cpuEnergy   power.EnergyMeter
	completions []JobCompletion
	// completionHook, when set, receives every job completion synchronously
	// inside the dispatch loop instead of the completions slice.
	completionHook func(JobCompletion)
	// arrivals holds future job submissions (open workloads), time-sorted.
	arrivals workload.Schedule
	// prevRates is Step's reused contention-coupling scratch.
	prevRates []float64
	// ffBase/ffProbe are FastForwardQuanta's reused probe scratch (see
	// advance.go): per-CPU counter baselines and measured quantum deltas.
	ffBase  []counters.Sample
	ffProbe []quantumDelta
	// adv counts stepped, replayed and probed quanta (see AdvanceStats).
	adv AdvanceStats
}

// New builds a machine from the configuration. Every CPU starts at nominal
// frequency running nothing (idle).
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:   cfg,
		clock: *engine.NewSimClock(cfg.Quantum),
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		th := newThrottle(cfg.Table.MaxFrequency(), cfg.ThrottleSteps, cfg.ThrottleSettle)
		idleCur, err := workload.NewCursor(workload.HotIdle())
		if err != nil {
			return nil, err
		}
		m.cpus = append(m.cpus, &cpu{throt: th, idleCursor: idleCur, idleNow: true})
	}
	return m, nil
}

// Now returns the simulation time in seconds.
func (m *Machine) Now() float64 { return m.clock.Now() }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumCPUs implements counters.Reader.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// ReadCounters implements counters.Reader: an exact read of the CPU's
// monotonic counters at the current simulation time.
func (m *Machine) ReadCounters(i int) (counters.Sample, error) {
	if i < 0 || i >= len(m.cpus) {
		return counters.Sample{}, fmt.Errorf("machine: cpu %d out of range", i)
	}
	s := m.cpus[i].totals
	s.Time = m.clock.Now()
	return s, nil
}

// SetMix assigns the multiprogrammed workload of CPU i. A nil mix leaves
// the CPU idle.
func (m *Machine) SetMix(i int, mix *workload.Mix) error {
	if i < 0 || i >= len(m.cpus) {
		return fmt.Errorf("machine: cpu %d out of range", i)
	}
	m.cpus[i].mix = mix
	return nil
}

// Mix returns the workload of CPU i (nil when idle).
func (m *Machine) Mix(i int) *workload.Mix { return m.cpus[i].mix }

// SetFrequency requests an effective frequency for CPU i, actuated through
// the throttle (quantisation and settling apply).
func (m *Machine) SetFrequency(i int, f units.Frequency) error {
	if i < 0 || i >= len(m.cpus) {
		return fmt.Errorf("machine: cpu %d out of range", i)
	}
	_, err := m.cpus[i].throt.request(m.clock.Now(), f)
	return err
}

// EffectiveFrequency returns the frequency CPU i currently runs at.
func (m *Machine) EffectiveFrequency(i int) units.Frequency {
	return m.cpus[i].throt.effective(m.clock.Now())
}

// IsIdle reports whether CPU i currently has no runnable work — the signal
// the firmware/OS idle indicator of §5 would deliver. It is computed live
// (not from the last quantum) so a freshly assigned mix immediately clears
// the idle state.
func (m *Machine) IsIdle(i int) bool {
	c := m.cpus[i]
	return c.mix == nil || c.mix.Done()
}

// StealTime charges the fvsst daemon's own execution time against CPU i:
// the seconds are deducted from the CPU's upcoming quanta, modelling the
// prototype's measured overhead (Figure 4).
func (m *Machine) StealTime(i int, seconds float64) error {
	if i < 0 || i >= len(m.cpus) {
		return fmt.Errorf("machine: cpu %d out of range", i)
	}
	if seconds < 0 {
		return fmt.Errorf("machine: cannot steal negative time")
	}
	m.cpus[i].stolenDebt += seconds
	return nil
}

// CPUPower returns the table power of CPU i at its current effective
// frequency. Frequency zero means the processor is powered off entirely
// (the power-down policy) and draws nothing; any non-zero frequency is
// floored at the table's lowest operating point. The table lookup is a
// pure function of f, so it runs only when the CPU's frequency has changed
// since its last call.
func (m *Machine) CPUPower(i int) units.Power {
	c := m.cpus[i]
	f := c.throt.effective(m.clock.Now())
	if f == 0 {
		return 0
	}
	if f == c.powF {
		return c.powP
	}
	p, err := m.cfg.Table.PowerInterp(f)
	if err != nil {
		// Effective frequency can never exceed the table's nominal max, so
		// interpolation cannot fail; keep the invariant loud.
		panic(fmt.Sprintf("machine: power lookup at %v: %v", f, err))
	}
	c.powF, c.powP = f, p
	return p
}

// TotalCPUPower returns the aggregate processor power.
func (m *Machine) TotalCPUPower() units.Power {
	var total units.Power
	for i := range m.cpus {
		total += m.CPUPower(i)
	}
	return total
}

// SystemPower returns the true total system power (CPUs + non-CPU base).
func (m *Machine) SystemPower() units.Power {
	return nonCPU + m.TotalCPUPower()
}

// Energy returns the integrated total system energy so far.
func (m *Machine) Energy() units.Energy { return m.energy.Total() }

// CPUEnergy returns the integrated processor-only energy so far, the
// quantity the paper's Table 3 reports (normalised by the caller).
func (m *Machine) CPUEnergy() units.Energy { return m.cpuEnergy.Total() }

// SetCompletionHook diverts job completions to fn instead of the
// unbounded completions slice. The hook fires synchronously inside the
// dispatch loop at the moment the job finishes, *before* the CPU picks
// its next job — so a hook that installs more work (a serving station
// rebinding the cursor to the next queued request) keeps the CPU busy
// within the same quantum, making the station work-conserving. The hook
// must not call back into the machine's stepping methods. A nil fn
// restores the default slice recording.
func (m *Machine) SetCompletionHook(fn func(JobCompletion)) {
	m.completionHook = fn
}

// Completions returns every job completion recorded so far.
func (m *Machine) Completions() []JobCompletion {
	out := make([]JobCompletion, len(m.completions))
	copy(out, m.completions)
	return out
}

// LastQuantum returns what CPU i did during the most recent Step.
func (m *Machine) LastQuantum(i int) QuantumStats { return m.cpus[i].last }

// AllJobsDone reports whether every assigned mix has completed (idle CPUs
// with no mix count as done). A machine with pending arrivals is not done.
func (m *Machine) AllJobsDone() bool {
	if len(m.arrivals) > 0 {
		return false
	}
	for _, c := range m.cpus {
		if c.mix != nil && !c.mix.Done() {
			return false
		}
	}
	return true
}

// Submit schedules jobs to arrive at their times — the open-workload model
// of a server node. Arrivals whose time has already passed join
// immediately at the next Step. Each arrival's CPU must be in range.
func (m *Machine) Submit(arrivals workload.Schedule) error {
	if err := arrivals.Validate(); err != nil {
		return err
	}
	for _, a := range arrivals {
		if a.CPU >= len(m.cpus) {
			return fmt.Errorf("machine: arrival cpu %d out of range", a.CPU)
		}
	}
	// Stable, so equal-time arrivals keep submission order.
	m.arrivals = append(m.arrivals, arrivals...)
	sort.SliceStable(m.arrivals, func(i, j int) bool { return m.arrivals[i].At < m.arrivals[j].At })
	return nil
}

// PendingArrivals returns how many submitted jobs have not yet arrived.
func (m *Machine) PendingArrivals() int { return len(m.arrivals) }

// admitArrivals moves matured arrivals into their CPUs' mixes. Submit
// validated every arrival, so an error here means one bypassed it.
func (m *Machine) admitArrivals() error {
	for len(m.arrivals) > 0 && m.arrivals[0].At <= m.clock.Now() {
		a := m.arrivals[0]
		m.arrivals = m.arrivals[1:]
		c := m.cpus[a.CPU]
		if c.mix == nil {
			mix, err := workload.NewMix(a.Program)
			if err != nil {
				return err
			}
			c.mix = mix
			continue
		}
		if err := c.mix.Add(a.Program); err != nil {
			return err
		}
	}
	return nil
}

// Step is StepQuantum for a caller with no error path: it panics if the
// quantum cannot be accounted. Nothing that ships calls it — every driver,
// experiment and the Run helpers below go through StepQuantum (or
// AdvanceTo/FastForwardQuanta) and return the structured *StepError. It
// stays for the benchmark's machine.step_ns probe (bench/probes.go), whose
// timed loop has nowhere to put an error, and for tests.
func (m *Machine) Step() {
	if err := m.StepQuantum(); err != nil {
		panic(err)
	}
}

// StepQuantum advances the simulation by one dispatch quantum on every
// CPU, returning a *StepError instead of panicking when an arrival cannot
// be admitted or energy accounting fails — the advance path the cluster
// coordinator and the DES drivers run on.
func (m *Machine) StepQuantum() error {
	m.adv.Stepped++
	if err := m.admitArrivals(); err != nil {
		return m.stepError("admit", err)
	}
	dt := m.cfg.Quantum
	// Contention couples through the *previous* quantum's traffic so each
	// step remains an explicit (non-fixed-point) update. prevRates is a
	// reused per-step scratch buffer (the Step hot path allocates nothing
	// in steady state).
	if cap(m.prevRates) < len(m.cpus) {
		m.prevRates = make([]float64, len(m.cpus))
	}
	m.prevRates = m.prevRates[:len(m.cpus)]
	for i, c := range m.cpus {
		m.prevRates[i] = c.last.PostL1Rate
	}
	for i, c := range m.cpus {
		m.stepCPU(i, c, dt, m.partnerRate(i, m.prevRates))
	}
	// Integrate energy at the post-actuation operating points.
	cpuP := m.TotalCPUPower()
	if err := m.cpuEnergy.Accumulate(cpuP, dt); err != nil {
		return m.stepError("cpu-energy", err)
	}
	if err := m.energy.Accumulate(nonCPU+cpuP, dt); err != nil {
		return m.stepError("system-energy", err)
	}
	m.clock.Tick()
	return nil
}

// partnerRate returns the post-L1 rate of the core CPU i shares its L2
// with on the p630's dual-core modules, or 0 when that core does not exist.
func (m *Machine) partnerRate(i int, rates []float64) float64 {
	partner := i ^ 1
	if partner >= len(m.cpus) {
		return 0
	}
	return rates[partner]
}

func (m *Machine) stepCPU(i int, c *cpu, dt float64, partnerRate float64) {
	f := c.throt.effective(m.clock.Now())
	stats := QuantumStats{Freq: f}
	avail := dt

	// The daemon's stolen time comes off the top of the quantum.
	if c.stolenDebt > 0 {
		steal := c.stolenDebt
		if steal > avail {
			steal = avail
		}
		c.stolenDebt -= steal
		avail -= steal
		// Stolen time still burns non-halted cycles (the daemon runs).
		burned := uint64(steal * f.Hz())
		c.totals.Cycles += burned
		stats.Cycles += burned
	}

	if f <= 0 {
		// Fully throttled: time passes, nothing retires.
		c.idleNow = c.mix == nil || c.mix.Done()
		c.last = stats
		return
	}

	latScale := m.quantumLatencyScale(partnerRate)
	var postL1Refs float64

	// Dispatch: run the picked job through the quantum, rolling to the
	// next job if it completes mid-quantum.
	for avail > 1e-12 {
		var job *workload.Cursor
		if c.mix != nil {
			job = c.mix.PickNext()
		}
		if job == nil {
			break
		}
		used, refs := m.execJob(i, c, job, f, latScale, avail, &stats)
		postL1Refs += refs
		avail -= used
		if !job.Done() {
			// Quantum expired inside the job — OS time-slice boundary.
			break
		}
		// Precise completion time: offset into the quantum already spent.
		done := JobCompletion{CPU: i, Program: job.Program().Name, At: m.clock.Now() + (dt - avail)}
		if m.completionHook != nil {
			m.completionHook(done)
		} else {
			m.completions = append(m.completions, done)
		}
	}
	// The CPU is idle exactly when it has no runnable work left.
	c.idleNow = c.mix == nil || c.mix.Done()
	// Idle residue of the quantum.
	if avail > 1e-12 && c.idleNow {
		switch m.cfg.Idle {
		case IdleHot:
			used, refs := m.execJob(i, c, c.idleCursor, f, latScale, avail, &stats)
			postL1Refs += refs
			avail -= used
		case IdleHalt:
			halted := uint64(avail * f.Hz())
			c.totals.HaltedCycles += halted
			avail = 0
		}
	}

	stats.Idle = c.idleNow
	stats.PostL1Rate = postL1Refs / dt
	c.last = stats
}

// random returns the source seeded with cfg.Seed, building it on the first
// draw: a source is 4.9 KB and 607 seeding steps, which a jitter-free
// analytic machine (every node of a DES fleet) never uses. Same seed, same
// first draw, so the stream is the one an eager source would give.
func (m *Machine) random() *rand.Rand {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.cfg.Seed))
	}
	return m.rng
}

// quantumLatencyScale draws this quantum's true memory-latency multiplier:
// shared-cache contention times lognormal-ish jitter, floored at 0.5.
func (m *Machine) quantumLatencyScale(partnerRate float64) float64 {
	scale := m.cfg.Contention.Factor(partnerRate, contentionSatRefs)
	if m.cfg.LatencyJitterSigma > 0 {
		scale *= 1 + m.random().NormFloat64()*m.cfg.LatencyJitterSigma
	}
	if scale < 0.5 {
		scale = 0.5
	}
	return scale
}

// execJob dispatches CPU i's work to the configured execution model.
func (m *Machine) execJob(i int, c *cpu, job *workload.Cursor, f units.Frequency, latScale, avail float64, stats *QuantumStats) (used float64, postL1 float64) {
	if m.cfg.MonteCarloExec {
		return m.runJobMC(i, c, job, f, latScale, avail, stats)
	}
	return m.runJob(c, job, f, latScale, avail, stats)
}

// runJob executes cursor work at frequency f for at most avail seconds and
// returns the seconds consumed and post-L1 references generated. It updates
// the CPU's counters and the quantum stats.
func (m *Machine) runJob(c *cpu, job *workload.Cursor, f units.Frequency, latScale, avail float64, stats *QuantumStats) (used float64, postL1 float64) {
	for avail > 1e-12 && !job.Done() {
		// The phase and its cost as entered; both stay on this phase when
		// the advance below crosses into the next.
		phase := job.Current()
		core, stall := job.PhaseCost()
		cpi := core + stall*latScale*f.Hz()
		rate := f.Hz() / cpi // instructions per second
		budget := uint64(rate * avail)
		if budget == 0 {
			// Remaining sliver cannot retire one instruction; burn it.
			burned := uint64(avail * f.Hz())
			c.totals.Cycles += burned
			stats.Cycles += burned
			used += avail
			avail = 0
			break
		}
		n, _ := job.AdvanceWithinPhase(budget)
		dtUsed := float64(n) / rate
		cycles := uint64(dtUsed * f.Hz())
		l2 := uint64(float64(n) * phase.Rates.L2PerInstr)
		l3 := uint64(float64(n) * phase.Rates.L3PerInstr)
		mem := uint64(float64(n) * phase.Rates.MemPerInstr)

		c.totals.Instructions += n
		c.totals.Cycles += cycles
		c.totals.L2Refs += l2
		c.totals.L3Refs += l3
		c.totals.MemRefs += mem

		stats.Instructions += n
		stats.Cycles += cycles
		postL1 += float64(l2 + l3 + mem)
		used += dtUsed
		avail -= dtUsed
	}
	return used, postL1
}
