package power

import (
	"fmt"
	"math/rand"

	"repro/internal/units"
)

// Meter is the power-measurement path the paper's mechanism uses to
// "monitor compliance" with the global limit (§5). Real sensors are noisy;
// the meter applies multiplicative Gaussian noise from a seeded source so
// experiments are reproducible.
type Meter struct {
	// rng is built from seed by the first noisy Read (same seed, same first
	// draw, same stream); a noise-free meter never pays for a source.
	rng  *rand.Rand
	seed int64
	// NoiseSigma is the relative standard deviation of a reading
	// (0.01 = 1% sensor noise). Zero disables noise.
	NoiseSigma float64
}

// NewMeter returns a meter with the given noise level and seed.
func NewMeter(noiseSigma float64, seed int64) (*Meter, error) {
	if noiseSigma < 0 || noiseSigma > 0.5 {
		return nil, fmt.Errorf("power: meter noise sigma %v out of [0,0.5]", noiseSigma)
	}
	return &Meter{seed: seed, NoiseSigma: noiseSigma}, nil
}

// Read returns a noisy observation of the true power, clamped non-negative.
func (m *Meter) Read(truth units.Power) units.Power {
	if m.NoiseSigma == 0 {
		return truth
	}
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.seed))
	}
	obs := truth * units.Power(1+m.rng.NormFloat64()*m.NoiseSigma)
	if obs < 0 {
		obs = 0
	}
	return obs
}

// EnergyMeter integrates power over simulation time, producing the energy
// figures of Table 3 ("Energy @ 140W" etc., normalised by the caller).
type EnergyMeter struct {
	total units.Energy
}

// Accumulate adds power p held constant over dt seconds.
func (e *EnergyMeter) Accumulate(p units.Power, dt float64) error {
	if dt < 0 {
		return fmt.Errorf("power: energy meter dt %v must be non-negative", dt)
	}
	if p < 0 {
		return fmt.Errorf("power: energy meter power %v must be non-negative", p)
	}
	e.total += units.EnergyOver(p, dt)
	return nil
}

// AccumulateRepeat leaves the meter exactly as n Accumulate(p, dt) calls
// would, bit for bit: a DES fast-forward over n identical quanta must
// reproduce the stepped engine's accumulated rounding (the integrated
// totals are rendered bit-for-bit in differential traces), so each
// accumulator is advanced by units.AddRepeat — the n additions' result,
// computed per binade — never by one addition of n·inc.
func (e *EnergyMeter) AccumulateRepeat(p units.Power, dt float64, n int) error {
	if n < 0 {
		return fmt.Errorf("power: energy meter repeat count %d must be non-negative", n)
	}
	if dt < 0 {
		return fmt.Errorf("power: energy meter dt %v must be non-negative", dt)
	}
	if p < 0 {
		return fmt.Errorf("power: energy meter power %v must be non-negative", p)
	}
	e.total = units.Energy(units.AddRepeat(float64(e.total), float64(units.EnergyOver(p, dt)), n))
	return nil
}

// Total returns the accumulated energy.
func (e *EnergyMeter) Total() units.Energy { return e.total }

// SystemPower converts processor power into whole-system power using the
// motivating example's breakdown: CPUs are 75% of a 746 W system, so the
// non-CPU base (memory, fans, disks, planar) is a constant overhead.
type SystemPower struct {
	// Base is the frequency-independent non-CPU power.
	Base units.Power
}

// MotivatingSystem returns the §2 breakdown: four 140 W CPUs (560 W) in a
// 746 W system leaves a 186 W non-CPU base.
func MotivatingSystem() SystemPower {
	return SystemPower{Base: units.Watts(746 - 4*140)}
}

// Total returns system power for a given aggregate CPU power.
func (s SystemPower) Total(cpu units.Power) units.Power { return s.Base + cpu }

// CPUBudgetFor inverts Total: the CPU power budget implied by a system-level
// limit. ok is false when the limit cannot even cover the base load.
func (s SystemPower) CPUBudgetFor(systemLimit units.Power) (units.Power, bool) {
	if systemLimit <= s.Base {
		return 0, false
	}
	return systemLimit - s.Base, true
}
