package farm

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// UPS models the battery feed the farm falls back to when the grid supply
// fails: a capacity in joules, drain integrated from the *charged* power —
// the sum of granted budget leases, not the metered draw, so the governor
// is conservative through partitions exactly like the netcluster charged-
// power invariant — and a budget computed each period so the remaining
// energy sustains a configured runway:
//
//	B(t) = E_remaining(t) / runway
//
// Draining at exactly B(t) gives E(t) = E₀·e^(−t/runway): the budget
// shrinks as the battery depletes but the instantaneous runway never
// drops below the configured value, so the battery is never emptied by a
// compliant consumer (a runway governor, not a countdown).
type UPS struct {
	stored units.Energy
	runway float64
	// MaxOutput optionally caps BudgetAt (an inverter limit); zero means
	// uncapped.
	MaxOutput units.Power
}

// NewUPS builds a fully charged UPS with the given capacity whose budget
// sustains the given runway in seconds.
func NewUPS(capacity units.Energy, runway float64) (*UPS, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("farm: UPS capacity %v must be positive", capacity)
	}
	if runway <= 0 {
		return nil, fmt.Errorf("farm: UPS runway %v must be positive", runway)
	}
	return &UPS{stored: capacity, runway: runway}, nil
}

// Remaining returns the energy currently stored.
func (u *UPS) Remaining() units.Energy { return u.stored }

// Empty reports whether the battery has been drained to zero.
func (u *UPS) Empty() bool { return u.stored <= 0 }

// Drain integrates p over dt seconds out of the battery, clamping the
// stored energy at zero.
func (u *UPS) Drain(p units.Power, dt float64) error {
	if p < 0 || dt < 0 {
		return fmt.Errorf("farm: UPS drain of %v over %vs: power and time must be non-negative", p, dt)
	}
	u.stored -= units.EnergyOver(p, dt)
	if u.stored < 0 {
		u.stored = 0
	}
	return nil
}

// BudgetAt returns the runway-governed budget: the draw the remaining
// energy sustains for the configured runway, capped by MaxOutput when set.
func (u *UPS) BudgetAt(float64) units.Power {
	b := units.Power(float64(u.stored) / u.runway)
	if u.MaxOutput > 0 && b > u.MaxOutput {
		b = u.MaxOutput
	}
	return b
}

// RunwayAt reports how long the battery sustains the given draw; +Inf at
// zero draw.
func (u *UPS) RunwayAt(_ float64, draw units.Power) float64 {
	if draw <= 0 {
		return math.Inf(1)
	}
	return float64(u.stored) / float64(draw)
}
