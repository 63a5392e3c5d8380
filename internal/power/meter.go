package power

import (
	"fmt"

	"repro/internal/units"
)

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

// CPUBudgetFor returns the CPU power budget a system-level limit leaves
// above the base. ok is false when the limit cannot even cover the base.
func (s SystemPower) CPUBudgetFor(systemLimit units.Power) (units.Power, bool) {
	if systemLimit <= s.Base {
		return 0, false
	}
	return systemLimit - s.Base, true
}
