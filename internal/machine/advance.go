// Variable-dt advancement: the discrete-event fast path over the quantum
// engine. AdvanceTo and FastForwardQuanta advance a machine many quanta
// at a time while remaining byte-identical to repeated Step calls — the
// contract the quantum-vs-DES differential driver pins.
//
// The mechanism is probe-and-replay, with Step as the only executor of
// simulated work: when the machine is in a steady span (no runnable or
// pending work, no settling throttle, no RNG consumption per quantum),
// two consecutive quanta are run through the real Step path; if they
// produce identical counter deltas and quantum stats, every further
// quantum in the span is that same pure function of state, so the span
// is replayed in bulk — integer counter additions, one idle-cursor
// advance, and the clock and both energy meters moved to exactly the bits
// the per-quantum floating-point additions would leave (repeated addition
// is observable; summing once would round differently — units.AddRepeat
// computes its result per binade crossed, so a span costs the same
// whether it is ten quanta or an hour). Anything the probes cannot
// certify — jitter draws, Monte-Carlo execution, arrivals maturing,
// idle-loop phase wrap — falls back to per-quantum stepping, so the fast
// path is an optimisation, never a semantic.
package machine

import (
	"fmt"
	"math"

	"repro/internal/counters"
)

// StepError is the structured failure the advance paths surface when a
// quantum cannot be run (an arrival that cannot be admitted) or accounted
// (energy integration rejecting its inputs), instead of crashing
// mid-simulation. Only the legacy Step wrapper still panics, preserving
// its historical contract.
type StepError struct {
	Machine string
	At      float64
	Op      string
	Err     error
}

// Error implements error.
func (e *StepError) Error() string {
	return fmt.Sprintf("machine %s: %s at t=%v: %v", e.Machine, e.Op, e.At, e.Err)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *StepError) Unwrap() error { return e.Err }

func (m *Machine) stepError(op string, err error) error {
	return &StepError{Machine: m.cfg.Name, At: m.clock.Now(), Op: op, Err: err}
}

// NextArrivalAt returns the due time of the earliest pending submission —
// the machine's next externally interesting time on a DES timeline — and
// false when no arrivals are pending.
func (m *Machine) NextArrivalAt() (float64, bool) {
	if len(m.arrivals) == 0 {
		return 0, false
	}
	return m.arrivals[0].At, true
}

// AdvanceStats counts how the machine's quanta were accounted since it
// was built — the split a fast-forward's cost follows from.
type AdvanceStats struct {
	Stepped    uint64 // quanta run through StepQuantum, probe quanta included
	Replayed   uint64 // quanta applied by a certified replay, never executed
	ProbePairs uint64 // steady-looking spans probed, two stepped quanta each
	Certified  uint64 // probe pairs whose second quantum reproduced the first
}

// AdvanceStats returns the counts so far.
func (m *Machine) AdvanceStats() AdvanceStats { return m.adv }

// quantaUntil returns how many whole quanta separate now from t, clamped
// while still a float: a quotient beyond int's range converts to an
// implementation-defined value (negative on amd64).
func (m *Machine) quantaUntil(t float64) int {
	return int(max(0, min((t-m.clock.Now())/m.cfg.Quantum, math.MaxInt/2)))
}

// quantumDelta is one probe measurement: what a single Step changed on
// one CPU, plus the state needed to certify that replaying it is exact.
type quantumDelta struct {
	d    counters.Sample // per-quantum counter delta (Time unused)
	last QuantumStats    // the stats the quantum produced
	rem  uint64          // idle-cursor instructions left in phase after the probe
}

func subSample(a, b counters.Sample) counters.Sample {
	return counters.Sample{
		Instructions: a.Instructions - b.Instructions,
		Cycles:       a.Cycles - b.Cycles,
		HaltedCycles: a.HaltedCycles - b.HaltedCycles,
		L2Refs:       a.L2Refs - b.L2Refs,
		L3Refs:       a.L3Refs - b.L3Refs,
		MemRefs:      a.MemRefs - b.MemRefs,
	}
}

func addSampleN(dst *counters.Sample, d counters.Sample, n uint64) {
	dst.Instructions += d.Instructions * n
	dst.Cycles += d.Cycles * n
	dst.HaltedCycles += d.HaltedCycles * n
	dst.L2Refs += d.L2Refs * n
	dst.L3Refs += d.L3Refs * n
	dst.MemRefs += d.MemRefs * n
}

// steadyEligible reports whether the machine's next quantum is a pure
// function of its current per-quantum state — the precondition for
// probe-and-replay. It requires: no matured or runnable work, no stolen
// daemon time, no throttle still settling, and no RNG consumption per
// quantum. RNG is consumed by the latency-jitter draw whenever any CPU
// runs at f > 0, and by Monte-Carlo execution when the hot idle loop
// actually executes, so those configurations are only eligible fully
// throttled.
func (m *Machine) steadyEligible() bool {
	now := m.clock.Now()
	if len(m.arrivals) > 0 && m.arrivals[0].At <= now {
		return false
	}
	anyHot := false
	for _, c := range m.cpus {
		if c.mix != nil && !c.mix.Done() {
			return false
		}
		if c.stolenDebt > 0 {
			return false
		}
		if c.throt.settling(now) {
			return false
		}
		if c.throt.effective(now) > 0 {
			anyHot = true
		}
	}
	if anyHot {
		if m.cfg.LatencyJitterSigma != 0 {
			return false
		}
		if m.cfg.Idle == IdleHot && m.cfg.MonteCarloExec {
			return false
		}
	}
	return true
}

// FastForwardQuanta advances exactly n dispatch quanta, equivalent —
// byte for byte on counters, energy, clock, completions and RNG state —
// to n iterations of { StepQuantum(); after() }. after (which may be
// nil) runs at the end of every quantum with the machine fully advanced,
// the hook a sampler collecting per-quantum windows hangs on; it must
// observe the machine only, not mutate it. Steady spans are replayed in
// bulk; everything else steps.
func (m *Machine) FastForwardQuanta(n int, after func() error) error {
	if n < 0 {
		return m.stepError("fast-forward", fmt.Errorf("negative quantum count %d", n))
	}
	for n > 0 {
		k, err := m.fastForwardSpan(n, after)
		if err != nil {
			return err
		}
		n -= k
	}
	return nil
}

// fastForwardSpan advances between 1 and n quanta and reports how many.
func (m *Machine) fastForwardSpan(n int, after func() error) (int, error) {
	stepOne := func() error {
		if err := m.StepQuantum(); err != nil {
			return err
		}
		if after != nil {
			return after()
		}
		return nil
	}
	// A replay only pays for itself past two probe quanta.
	if n < 3 || !m.steadyEligible() {
		if err := stepOne(); err != nil {
			return 0, err
		}
		return 1, nil
	}
	if cap(m.ffBase) < len(m.cpus) {
		m.ffBase = make([]counters.Sample, len(m.cpus))
		m.ffProbe = make([]quantumDelta, len(m.cpus))
	}
	m.ffBase = m.ffBase[:len(m.cpus)]
	m.ffProbe = m.ffProbe[:len(m.cpus)]
	m.adv.ProbePairs++

	// Probe 1: a real quantum, measured. Its delta may still carry
	// transients (contention coupling reaches steady state one quantum
	// after the workload does), so it only anchors the comparison.
	for i, c := range m.cpus {
		m.ffBase[i] = c.totals
	}
	if err := stepOne(); err != nil {
		return 0, err
	}
	for i, c := range m.cpus {
		m.ffProbe[i] = quantumDelta{d: subSample(c.totals, m.ffBase[i]), last: c.last, rem: c.idleCursor.RemainingInPhase()}
	}
	done := 1

	// Probe 2: certify. If it reproduces probe 1 exactly, the quantum is
	// a fixed point of the machine state and replaying it is exact.
	for i, c := range m.cpus {
		m.ffBase[i] = c.totals
	}
	if err := stepOne(); err != nil {
		return done, err
	}
	done = 2
	steady := m.steadyEligible()
	for i, c := range m.cpus {
		p := &m.ffProbe[i]
		d := subSample(c.totals, m.ffBase[i])
		rem := c.idleCursor.RemainingInPhase()
		if d != p.d || c.last != p.last || rem != p.rem-d.Instructions {
			steady = false
		}
	}
	if !steady {
		return done, nil
	}
	m.adv.Certified++

	// Bound the replay: stop a full quantum short of the next arrival
	// (float-safe: probes and fallback steps absorb the boundary), and
	// keep every idle cursor comfortably inside its current phase so
	// each replayed quantum sees the same in-phase headroom the probes
	// did.
	k := n - done
	if len(m.arrivals) > 0 {
		if kArr := m.quantaUntil(m.arrivals[0].At) - 1; kArr < k {
			k = kArr
		}
	}
	for i := range m.cpus {
		p := &m.ffProbe[i]
		dI := p.d.Instructions
		if dI == 0 {
			continue
		}
		rem := m.cpus[i].idleCursor.RemainingInPhase()
		if rem < 2*dI+2 {
			k = 0
			break
		}
		if kc := int((rem - 2*dI - 2) / dI); kc < k {
			k = kc
		}
	}
	if k <= 0 {
		return done, nil
	}

	// Replay: the certified quantum, k times. Integer counter work is
	// batched; the clock and energy meters land on the bits k per-quantum
	// float additions would leave (AccumulateRepeat, TickN).
	dt := m.cfg.Quantum
	cpuP := m.TotalCPUPower()
	sysP := nonCPU + cpuP
	if after == nil {
		if err := m.cpuEnergy.AccumulateRepeat(cpuP, dt, k); err != nil {
			return done, m.stepError("cpu-energy", err)
		}
		if err := m.energy.AccumulateRepeat(sysP, dt, k); err != nil {
			return done, m.stepError("system-energy", err)
		}
		for i, c := range m.cpus {
			p := &m.ffProbe[i]
			addSampleN(&c.totals, p.d, uint64(k))
			if p.d.Instructions > 0 {
				c.idleCursor.AdvanceWithinPhase(p.d.Instructions * uint64(k))
			}
		}
		m.clock.TickN(k)
		m.adv.Replayed += uint64(k)
		return done + k, nil
	}
	for j := 0; j < k; j++ {
		for i, c := range m.cpus {
			p := &m.ffProbe[i]
			addSampleN(&c.totals, p.d, 1)
			if p.d.Instructions > 0 {
				c.idleCursor.AdvanceWithinPhase(p.d.Instructions)
			}
		}
		if err := m.cpuEnergy.Accumulate(cpuP, dt); err != nil {
			return done, m.stepError("cpu-energy", err)
		}
		if err := m.energy.Accumulate(sysP, dt); err != nil {
			return done, m.stepError("system-energy", err)
		}
		m.clock.Tick()
		m.adv.Replayed++
		done++
		if err := after(); err != nil {
			return done, err
		}
	}
	return done, nil
}

// AdvanceTo advances the machine to simulation time t — inclusive of the
// quantum containing t, exactly like StepQuantum repeated while Now() < t
// — fast-forwarding steady spans. The result is byte-identical to that
// stepped loop on every configuration; the only difference is wall-clock
// cost. A NaN or infinite t is a *StepError, not a silent no-op or a run
// without end.
func (m *Machine) AdvanceTo(t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return m.stepError("advance", fmt.Errorf("target time %v is not finite", t))
	}
	for m.clock.Now() < t {
		if err := m.FastForwardQuanta(max(1, m.quantaUntil(t)), nil); err != nil {
			return err
		}
	}
	return nil
}
