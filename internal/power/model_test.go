package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestDefaultVoltageCurve(t *testing.T) {
	c := DefaultVoltageCurve()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Nominal point: 1 GHz at 1.3 V (§7.1).
	if got := c.VoltageFor(units.GHz(1)); math.Abs(got.V()-1.3) > 1e-12 {
		t.Errorf("V(1GHz) = %v, want 1.3V", got)
	}
	// √ scaling: V(250MHz) = 1.3·√0.25 = 0.65.
	if got := c.VoltageFor(units.MHz(250)); math.Abs(got.V()-0.65) > 1e-12 {
		t.Errorf("V(250MHz) = %v, want 0.65V", got)
	}
	// Floor applies at very low frequency.
	if got := c.VoltageFor(units.MHz(10)); got.V() != 0.6 {
		t.Errorf("V(10MHz) = %v, want floor 0.6V", got)
	}
	if got := c.VoltageFor(0); got.V() != 0.6 {
		t.Errorf("V(0) = %v, want floor", got)
	}
}

func TestVoltageCurveValidate(t *testing.T) {
	bad := []VoltageCurve{
		{VMax: 1.3, VMin: 0.6, FMax: 0, Gamma: 0.5},
		{VMax: 0, VMin: 0, FMax: units.GHz(1), Gamma: 0.5},
		{VMax: 1.0, VMin: 1.2, FMax: units.GHz(1), Gamma: 0.5},
		{VMax: 1.3, VMin: 0.6, FMax: units.GHz(1), Gamma: 0},
		{VMax: 1.3, VMin: 0.6, FMax: units.GHz(1), Gamma: 1.5},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad curve %d accepted", i)
		}
	}
}

func TestVoltageCurveMonotone(t *testing.T) {
	c := DefaultVoltageCurve()
	err := quick.Check(func(a, b uint16) bool {
		fa, fb := units.MHz(float64(a%1000)+1), units.MHz(float64(b%1000)+1)
		if fa > fb {
			fa, fb = fb, fa
		}
		return c.VoltageFor(fa) <= c.VoltageFor(fb)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestModelPowerDecomposition(t *testing.T) {
	m := Model{C: units.Farads(80e-9), B: 2, Curve: DefaultVoltageCurve()}
	f := units.GHz(1)
	v := m.Curve.VoltageFor(f)
	total := m.PowerAt(f, v)
	// Active C·V²·f = 80e-9 · 1.69 · 1e9 = 135.2 W; static B·V² = 2 · 1.69
	// = 3.38 W.
	if math.Abs(total.W()-(135.2+3.38)) > 1e-6 {
		t.Errorf("total = %v, want 135.2W active + 3.38W static", total)
	}
}

// tabulate evaluates m at each frequency of set at the curve's voltage:
// the operating-point table an analytic model implies.
func tabulate(m Model, set units.FrequencySet) (*Table, error) {
	points := make([]OperatingPoint, len(set))
	for i, f := range set {
		v := m.Curve.VoltageFor(f)
		points[i] = OperatingPoint{F: f, V: v, P: m.PowerAt(f, v)}
	}
	return NewTable(points)
}

func TestFitModelRecoversKnownCoefficients(t *testing.T) {
	// Build a table from a known model, then fit it back.
	truth := Model{C: units.Farads(75e-9), B: 3, Curve: DefaultVoltageCurve()}
	set := units.MustFrequencySet(
		units.MHz(250), units.MHz(500), units.MHz(750), units.GHz(1))
	tab, err := tabulate(truth, set)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitModel(tab, truth.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.C.F()-truth.C.F())/truth.C.F() > 1e-9 {
		t.Errorf("fit C = %v, want %v", fit.C, truth.C)
	}
	if math.Abs(fit.B-truth.B)/truth.B > 1e-6 {
		t.Errorf("fit B = %v, want %v", fit.B, truth.B)
	}
	if e := fitError(fit, tab); e > 1e-9 {
		t.Errorf("self-fit error = %v", e)
	}
}

func TestFitModelAgainstPaperTable1(t *testing.T) {
	// The analytic CV²f+BV² model with the default √f voltage curve must
	// reproduce the Lava-generated Table 1 within 8% everywhere — the
	// "regenerate the table shape" claim of DESIGN.md. (The table is not
	// exactly quadratic at its extremes, so a two-parameter physical model
	// cannot fit it perfectly.)
	tab := PaperTable1()
	m, err := FitModel(tab, DefaultVoltageCurve())
	if err != nil {
		t.Fatal(err)
	}
	if m.C <= 0 {
		t.Errorf("fitted capacitance %v not positive", m.C)
	}
	if m.B < 0 {
		t.Errorf("fitted leakage %v negative", m.B)
	}
	if e := fitError(m, tab); e > 0.08 {
		t.Errorf("fit error %.3f exceeds 8%%", e)
	}
}

func TestFitModelClampsNegativeCoefficients(t *testing.T) {
	// A table with power *decreasing* influence of frequency would drive C
	// negative; construct a nearly-flat table and check the clamp leaves
	// physical (non-negative) coefficients.
	pts := []OperatingPoint{
		{F: units.MHz(500), V: units.Volts(1.0), P: units.Watts(100)},
		{F: units.MHz(600), V: units.Volts(1.0), P: units.Watts(100.1)},
		{F: units.MHz(700), V: units.Volts(1.0), P: units.Watts(100.2)},
	}
	tab := MustTable(pts)
	m, err := FitModel(tab, DefaultVoltageCurve())
	if err != nil {
		t.Fatal(err)
	}
	if m.C < 0 || m.B < 0 {
		t.Errorf("clamp failed: C=%v B=%v", m.C, m.B)
	}
}

func TestFitModelNeedsTwoPoints(t *testing.T) {
	tab := MustTable([]OperatingPoint{{F: units.GHz(1), V: units.Volts(1.3), P: units.Watts(140)}})
	if _, err := FitModel(tab, DefaultVoltageCurve()); err == nil {
		t.Error("single-point fit: want error")
	}
}

func TestModelPowerMonotoneInFrequency(t *testing.T) {
	m := Model{C: units.Farads(80e-9), B: 2, Curve: DefaultVoltageCurve()}
	err := quick.Check(func(a, b uint16) bool {
		fa, fb := units.MHz(float64(a%1000)+50), units.MHz(float64(b%1000)+50)
		if fa > fb {
			fa, fb = fb, fa
		}
		return m.PowerAt(fa, m.Curve.VoltageFor(fa)) <= m.PowerAt(fb, m.Curve.VoltageFor(fb))
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// fitError returns the maximum relative error of the model against the
// table, |P_model - P_table| / P_table, over all points.
func fitError(m Model, t *Table) float64 {
	worst := 0.0
	for _, p := range t.Points() {
		got := m.PowerAt(p.F, p.V).W()
		rel := math.Abs(got-p.P.W()) / p.P.W()
		if rel > worst {
			worst = rel
		}
	}
	return worst
}
