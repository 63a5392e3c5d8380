package power

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// VoltageCurve maps a frequency to the minimum voltage that reliably drives
// it: V(f) = max(VMin, VMax·(f/FMax)^Gamma). The paper's Table 1 powers
// follow an almost exactly quadratic frequency dependence (P(1 GHz)/P(500
// MHz) = 140/35 = 4), which under P ≈ C·V²·f implies V ∝ √f, hence the
// default Gamma of 0.5 anchored at the platform's nominal 1 GHz / 1.3 V.
type VoltageCurve struct {
	VMax  units.Voltage
	VMin  units.Voltage
	FMax  units.Frequency
	Gamma float64
}

// DefaultVoltageCurve returns the curve calibrated to the p630's nominal
// operating point (1 GHz at 1.3 V) with a 0.6 V retention floor.
func DefaultVoltageCurve() VoltageCurve {
	return VoltageCurve{VMax: units.Volts(1.3), VMin: units.Volts(0.6), FMax: units.GHz(1), Gamma: 0.5}
}

// Validate checks the curve's parameters.
func (c VoltageCurve) Validate() error {
	if c.FMax <= 0 {
		return fmt.Errorf("power: voltage curve FMax %v must be positive", c.FMax)
	}
	if c.VMax <= 0 || c.VMin < 0 || c.VMin > c.VMax {
		return fmt.Errorf("power: voltage curve VMin/VMax %v/%v invalid", c.VMin, c.VMax)
	}
	if c.Gamma <= 0 || c.Gamma > 1 {
		return fmt.Errorf("power: voltage curve gamma %v out of (0,1]", c.Gamma)
	}
	return nil
}

// VoltageFor returns the minimum voltage for frequency f. Frequencies above
// FMax extrapolate along the curve; non-positive frequencies get VMin.
func (c VoltageCurve) VoltageFor(f units.Frequency) units.Voltage {
	if f <= 0 {
		return c.VMin
	}
	v := units.Voltage(float64(c.VMax) * math.Pow(f.Hz()/c.FMax.Hz(), c.Gamma))
	if v < c.VMin {
		return c.VMin
	}
	return v
}

// Model is the paper's analytic processor power model
//
//	P = C·V²·f + B·V²
//
// where the first term is active (switching) power and the second static
// (leakage) power (§4.4). C is the effective switched capacitance and B the
// process- and temperature-dependent leakage coefficient.
type Model struct {
	C     units.Capacitance // farads
	B     float64           // watts per volt² of leakage
	Curve VoltageCurve
}

// PowerAt returns the power at an explicit frequency/voltage pair.
func (m Model) PowerAt(f units.Frequency, v units.Voltage) units.Power {
	vv := v.Squared()
	return units.Power(m.C.F()*vv*f.Hz() + m.B*vv)
}

// FitModel least-squares fits C and B of P = C·V²f + B·V² to an existing
// operating-point table (with the voltages the table carries). This is how
// the reproduction recovers an analytic model from the paper's
// Lava-generated Table 1. The fit solves the 2×2 normal equations for the
// design matrix [V²f, V²]; a negative fitted coefficient is clamped to zero
// and the other coefficient refitted alone, since negative capacitance or
// leakage is unphysical.
func FitModel(t *Table, curve VoltageCurve) (Model, error) {
	if err := curve.Validate(); err != nil {
		return Model{}, err
	}
	pts := t.Points()
	if len(pts) < 2 {
		return Model{}, fmt.Errorf("power: need at least 2 points to fit, have %d", len(pts))
	}
	var sxx, sxy, syy, sxp, syp float64
	for _, p := range pts {
		x := p.V.Squared() * p.F.Hz() // V²f
		y := p.V.Squared()            // V²
		w := p.P.W()
		sxx += x * x
		sxy += x * y
		syy += y * y
		sxp += x * w
		syp += y * w
	}
	det := sxx*syy - sxy*sxy
	if det == 0 {
		return Model{}, fmt.Errorf("power: singular fit (degenerate table)")
	}
	c := (sxp*syy - syp*sxy) / det
	b := (syp*sxx - sxp*sxy) / det
	if c < 0 {
		c = 0
		b = syp / syy
	}
	if b < 0 {
		b = 0
		c = sxp / sxx
	}
	return Model{C: units.Farads(c), B: b, Curve: curve}, nil
}

// WithVoltageVariation derives per-processor operating-point tables from a
// shared base table for machines with process variation (§5: "the voltage
// table is different for each processor if there is significant process
// variation among them"). Each scale multiplies the minimum voltage of
// every operating point of that processor's table; power follows as V²
// (both the active and static terms are quadratic in V). Scales must be
// positive and within ±20% of nominal — anything further is a binning
// error, not variation.
func WithVoltageVariation(base *Table, scales []float64) ([]*Table, error) {
	out := make([]*Table, len(scales))
	for i, s := range scales {
		if s < 0.8 || s > 1.2 {
			return nil, fmt.Errorf("power: voltage scale %v for cpu %d out of [0.8,1.2]", s, i)
		}
		pts := base.Points()
		for j := range pts {
			pts[j].V = units.Voltage(pts[j].V.V() * s)
			pts[j].P = units.Power(pts[j].P.W() * s * s)
		}
		t, err := NewTable(pts)
		if err != nil {
			return nil, fmt.Errorf("power: variation table for cpu %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}
