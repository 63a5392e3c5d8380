// Package throttle models the pipeline-throttling hardware the prototype
// used in place of true frequency scaling (§6): the Power4+ can intersperse
// fetch, dispatch or commit cycles with dead cycles, covering the whole
// range from 0% to 100% of nominal frequency. fvsst treats a throttled
// processor exactly as if it ran at the equivalent lower clock; the paper
// validates that approximation with microbenchmarks and ignores settling
// time. This package keeps both the idealisation the scheduler sees and
// the imperfections (duty quantisation, settling latency) the machine
// simulates.
package throttle

import (
	"fmt"

	"repro/internal/units"
)

// Kind selects which pipeline stage the throttle gates.
type Kind int

// Throttle kinds. The prototype used fetch throttling; dispatch and commit
// throttling exist on the hardware and are modelled with slightly different
// effectiveness below.
const (
	Fetch Kind = iota
	Dispatch
	Commit
)

// String names the throttle kind.
func (k Kind) String() string {
	switch k {
	case Fetch:
		return "fetch"
	case Dispatch:
		return "dispatch"
	case Commit:
		return "commit"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// effectiveness is the fraction of the requested slowdown each mechanism
// actually delivers: gating fetch starves the whole pipeline cleanly, while
// gating later stages lets earlier ones keep fetching work that then stalls,
// recovering some throughput.
func (k Kind) effectiveness() float64 {
	switch k {
	case Fetch:
		return 1.0
	case Dispatch:
		return 0.97
	case Commit:
		return 0.94
	default:
		return 1.0
	}
}

// Throttle is one processor's throttling actuator.
type Throttle struct {
	kind    Kind
	nominal units.Frequency
	// steps is the duty-cycle quantisation: the hardware supports duty
	// levels i/steps for i in 0..steps.
	steps int
	// settle is how long a requested change takes to become effective, in
	// seconds. The scheduler ignores it ("ignores the settling time", §6);
	// the machine honours it.
	settle float64

	currentDuty float64
	pendingDuty float64
	pendingAt   float64 // simulation time the pending duty becomes active; <0 when none
}

// New constructs a throttle for a processor with the given nominal
// frequency. steps is the number of duty quantisation levels (≥1);
// settleSeconds ≥ 0.
func New(kind Kind, nominal units.Frequency, steps int, settleSeconds float64) (*Throttle, error) {
	if nominal <= 0 {
		return nil, fmt.Errorf("throttle: nominal frequency %v must be positive", nominal)
	}
	if steps < 1 {
		return nil, fmt.Errorf("throttle: steps %d must be ≥ 1", steps)
	}
	if settleSeconds < 0 {
		return nil, fmt.Errorf("throttle: settle time %v must be non-negative", settleSeconds)
	}
	return &Throttle{
		kind:        kind,
		nominal:     nominal,
		steps:       steps,
		settle:      settleSeconds,
		currentDuty: 1,
		pendingAt:   -1,
	}, nil
}

// QuantizeDuty rounds a duty cycle to the nearest supported level in [0,1].
func (t *Throttle) QuantizeDuty(d float64) float64 {
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	level := float64(int(d*float64(t.steps) + 0.5))
	return level / float64(t.steps)
}

// Request asks, at simulation time now, for an effective frequency f. The
// duty is quantised and becomes effective after the settle time. It returns
// the effective frequency that will be reached (post-quantisation).
func (t *Throttle) Request(now float64, f units.Frequency) (units.Frequency, error) {
	if f < 0 || f > t.nominal {
		return 0, fmt.Errorf("throttle: requested %v outside [0,%v]", f, t.nominal)
	}
	duty := t.QuantizeDuty(f.Hz() / t.nominal.Hz())
	// Collapse a pending change that has already taken effect.
	t.apply(now)
	t.pendingDuty = duty
	t.pendingAt = now + t.settle
	if t.settle == 0 {
		t.apply(now)
	}
	return t.dutyToFreq(duty), nil
}

// apply folds a matured pending duty into the current duty.
func (t *Throttle) apply(now float64) {
	if t.pendingAt >= 0 && now >= t.pendingAt {
		t.currentDuty = t.pendingDuty
		t.pendingAt = -1
	}
}

// Effective returns the frequency the processor actually runs at, at
// simulation time now, including the kind's effectiveness: a mechanism
// that recovers some throughput behaves like a slightly *higher* effective
// frequency than duty·nominal.
func (t *Throttle) Effective(now float64) units.Frequency {
	t.apply(now)
	return t.dutyToFreq(t.currentDuty)
}

func (t *Throttle) dutyToFreq(duty float64) units.Frequency {
	if duty >= 1 {
		return t.nominal
	}
	eff := t.kind.effectiveness()
	// The delivered slowdown is eff·(1-duty); the rest leaks through.
	slowdown := eff * (1 - duty)
	return units.Frequency(t.nominal.Hz() * (1 - slowdown))
}

// Settling reports whether a requested change has not yet taken effect at
// time now.
func (t *Throttle) Settling(now float64) bool {
	t.apply(now)
	return t.pendingAt >= 0
}
