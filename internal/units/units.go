// Package units provides strongly typed physical quantities used throughout
// the fvsst reproduction: frequency, power, voltage, energy and capacitance.
//
// The paper's scheduler converts between frequency settings, voltage levels
// and power values constantly; giving each its own type prevents the classic
// "watts where megahertz were expected" class of bug and gives every value a
// canonical SI base unit (Hz, W, V, J, F).
package units

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Frequency is a processor clock frequency in hertz.
type Frequency float64

// Common frequency scales.
const (
	Hertz     Frequency = 1
	Kilohertz Frequency = 1e3
	Megahertz Frequency = 1e6
	Gigahertz Frequency = 1e9
)

// MHz constructs a Frequency from a value expressed in megahertz.
func MHz(v float64) Frequency { return Frequency(v * 1e6) }

// GHz constructs a Frequency from a value expressed in gigahertz.
func GHz(v float64) Frequency { return Frequency(v * 1e9) }

// Hz returns the frequency in hertz as a plain float64.
func (f Frequency) Hz() float64 { return float64(f) }

// MHz returns the frequency expressed in megahertz.
func (f Frequency) MHz() float64 { return float64(f) / 1e6 }

// GHz returns the frequency expressed in gigahertz.
func (f Frequency) GHz() float64 { return float64(f) / 1e9 }

// String renders the frequency with a scale that keeps 2–4 significant
// digits, matching the paper's "750MHz" / "1.0GHz" style.
func (f Frequency) String() string {
	switch {
	case f >= Gigahertz:
		return trimFloat(f.GHz()) + "GHz"
	case f >= Megahertz:
		return trimFloat(f.MHz()) + "MHz"
	case f >= Kilohertz:
		return trimFloat(float64(f)/1e3) + "kHz"
	default:
		return trimFloat(float64(f)) + "Hz"
	}
}

// ParseFrequency parses strings such as "750MHz", "1.0 GHz" or "250000000".
// A bare number is interpreted as hertz.
func ParseFrequency(s string) (Frequency, error) {
	s = strings.TrimSpace(s)
	upper := strings.ToUpper(s)
	for _, sc := range []struct {
		suffix string
		mult   Frequency
	}{
		{"GHZ", Gigahertz},
		{"MHZ", Megahertz},
		{"KHZ", Kilohertz},
		{"HZ", Hertz},
	} {
		if strings.HasSuffix(upper, sc.suffix) {
			num := strings.TrimSpace(s[:len(s)-len(sc.suffix)])
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("units: parse frequency %q: %w", s, err)
			}
			return Frequency(v) * sc.mult, nil
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("units: parse frequency %q: %w", s, err)
	}
	return Frequency(v), nil
}

// Power is an electrical power in watts.
type Power float64

// Watts constructs a Power from a value expressed in watts.
func Watts(v float64) Power { return Power(v) }

// W returns the power in watts as a plain float64.
func (p Power) W() float64 { return float64(p) }

// KW returns the power expressed in kilowatts.
func (p Power) KW() float64 { return float64(p) / 1e3 }

// String renders the power in the paper's "140W" style.
func (p Power) String() string {
	if math.Abs(float64(p)) >= 1e3 {
		return trimFloat(p.KW()) + "kW"
	}
	return trimFloat(float64(p)) + "W"
}

// ParsePower parses strings such as "140W", "0.48 kW" or "75".
// A bare number is interpreted as watts.
func ParsePower(s string) (Power, error) {
	s = strings.TrimSpace(s)
	upper := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(upper, "KW"):
		v, err := strconv.ParseFloat(strings.TrimSpace(s[:len(s)-2]), 64)
		if err != nil {
			return 0, fmt.Errorf("units: parse power %q: %w", s, err)
		}
		return Power(v * 1e3), nil
	case strings.HasSuffix(upper, "W"):
		v, err := strconv.ParseFloat(strings.TrimSpace(s[:len(s)-1]), 64)
		if err != nil {
			return 0, fmt.Errorf("units: parse power %q: %w", s, err)
		}
		return Power(v), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("units: parse power %q: %w", s, err)
	}
	return Power(v), nil
}

// Voltage is an electrical potential in volts.
type Voltage float64

// Volts constructs a Voltage from a value expressed in volts.
func Volts(v float64) Voltage { return Voltage(v) }

// V returns the voltage in volts as a plain float64.
func (v Voltage) V() float64 { return float64(v) }

// Squared returns v² in V², the quantity appearing in both terms of the
// paper's power equation P = C·V²·f + B·V².
func (v Voltage) Squared() float64 { return float64(v) * float64(v) }

// String renders the voltage in the paper's "1.3V" style.
func (v Voltage) String() string { return trimFloat(float64(v)) + "V" }

// Energy is an amount of energy in joules.
type Energy float64

// Joules constructs an Energy from a value expressed in joules.
func Joules(v float64) Energy { return Energy(v) }

// J returns the energy in joules as a plain float64.
func (e Energy) J() float64 { return float64(e) }

// String renders the energy with joule or kilojoule scale.
func (e Energy) String() string {
	if math.Abs(float64(e)) >= 1e3 {
		return trimFloat(float64(e)/1e3) + "kJ"
	}
	return trimFloat(float64(e)) + "J"
}

// EnergyOver returns the energy dissipated by a constant power p over a
// duration of seconds.
func EnergyOver(p Power, seconds float64) Energy {
	return Energy(float64(p) * seconds)
}

// Capacitance is an effective switched capacitance in farads, the C in the
// paper's dynamic power term C·V²·f.
type Capacitance float64

// Farads constructs a Capacitance from a value expressed in farads.
func Farads(v float64) Capacitance { return Capacitance(v) }

// F returns the capacitance in farads as a plain float64.
func (c Capacitance) F() float64 { return float64(c) }

// trimFloat formats a float with up to three decimals and trims trailing
// zeros so 750 prints as "750" and 1.3 as "1.3". Values too small for
// three decimals fall back to scientific notation rather than collapsing
// to "0".
func trimFloat(v float64) string {
	if v != 0 && math.Abs(v) < 0.001 {
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// FrequencySet is an ascending, duplicate-free list of the discrete
// frequency settings a processor supports — the set F = f₀ … f_max of the
// paper's scheduling algorithm (Figure 3).
type FrequencySet []Frequency

// NewFrequencySet copies, sorts and deduplicates the given frequencies.
// Non-positive entries are rejected.
func NewFrequencySet(fs ...Frequency) (FrequencySet, error) {
	if len(fs) == 0 {
		return nil, fmt.Errorf("units: frequency set must not be empty")
	}
	out := make(FrequencySet, 0, len(fs))
	for _, f := range fs {
		if f <= 0 {
			return nil, fmt.Errorf("units: frequency set entry %v must be positive", f)
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:1]
	for _, f := range out[1:] {
		if f != dedup[len(dedup)-1] {
			dedup = append(dedup, f)
		}
	}
	return dedup, nil
}

// MustFrequencySet is NewFrequencySet for static tables; it panics on error.
func MustFrequencySet(fs ...Frequency) FrequencySet {
	set, err := NewFrequencySet(fs...)
	if err != nil {
		panic(err)
	}
	return set
}

// Max returns the highest frequency in the set — the paper's f_max.
func (s FrequencySet) Max() Frequency { return s[len(s)-1] }

// NextBelow returns the next lower setting than f (the paper's f_less) and
// true, or 0 and false when f is already the minimum or not in range.
func (s FrequencySet) NextBelow(f Frequency) (Frequency, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= f })
	if i == 0 {
		return 0, false
	}
	return s[i-1], true
}

// FloorOf returns the highest setting ≤ f and true, or 0 and false when f is
// below the minimum setting.
func (s FrequencySet) FloorOf(f Frequency) (Frequency, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] > f })
	if i == 0 {
		return 0, false
	}
	return s[i-1], true
}

// CeilOf returns the lowest setting ≥ f and true, or 0 and false when f is
// above the maximum setting.
func (s FrequencySet) CeilOf(f Frequency) (Frequency, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= f })
	if i >= len(s) {
		return 0, false
	}
	return s[i], true
}

// ClampTo returns the set member nearest to f, preferring the lower member
// on ties; f below the range clamps to Min and above to Max.
func (s FrequencySet) ClampTo(f Frequency) Frequency {
	if f <= s[0] {
		return s[0]
	}
	if f >= s[len(s)-1] {
		return s[len(s)-1]
	}
	hi, _ := s.CeilOf(f)
	lo, _ := s.FloorOf(f)
	if float64(f-lo) <= float64(hi-f) {
		return lo
	}
	return hi
}

// String renders the set as "{600MHz 700MHz ... 1GHz}".
func (s FrequencySet) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
