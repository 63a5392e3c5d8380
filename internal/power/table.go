// Package power models everything electrical in the reproduction: the
// frequency→power operating-point table the scheduler consults (the paper's
// Table 1, generated there by the Lava circuit tool), the minimum-voltage
// curve, the analytic P = C·V²·f + B·V² model, the dual power supplies of
// the motivating example with their cascade-failure deadline, and energy
// integration.
package power

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// OperatingPoint couples one frequency setting with the minimum voltage
// that reliably drives it and the peak power drawn at that pair. "Peak"
// because the paper's table deliberately ignores clock gating to obtain an
// upper bound (§4.4).
type OperatingPoint struct {
	F units.Frequency
	V units.Voltage
	P units.Power
}

// Table is the scheduler-facing operating-point table, ascending in
// frequency. Step 3 of the scheduling algorithm (the minimum voltage for
// f, VoltageAtIndex) and the power lookups of Step 2 are both table
// lookups here, exactly as the paper prescribes for processors with a
// small fixed frequency set.
type Table struct {
	points []OperatingPoint
}

// maxPower is the largest table power NewTable accepts, 2²⁰ W.
const maxPower = 1 << 20

// NewTable validates and sorts the given operating points: frequencies must
// be unique and positive, and voltage and power must be non-decreasing in
// frequency (a higher clock can never need less voltage or draw less peak
// power). Every power must be a whole number of watts, at most 2²⁰ W, as
// the paper's Table 1 and §5 table are. Then any sum of fewer than 2³³
// table powers, and any difference of two such sums, is an integer below
// 2⁵³: exact in float64 whatever the order of the additions. Step 2's
// running stop test (DemotedSum) and the exact comparator's frontier
// bound (internal/optimal) rest on that.
func NewTable(points []OperatingPoint) (*Table, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("power: table must have at least one operating point")
	}
	ps := make([]OperatingPoint, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].F < ps[j].F })
	for i, p := range ps {
		if p.F <= 0 {
			return nil, fmt.Errorf("power: operating point %d has non-positive frequency %v", i, p.F)
		}
		if p.V <= 0 {
			return nil, fmt.Errorf("power: operating point %v has non-positive voltage %v", p.F, p.V)
		}
		if p.P <= 0 {
			return nil, fmt.Errorf("power: operating point %v has non-positive power %v", p.F, p.P)
		}
		if w := p.P.W(); w != math.Trunc(w) || w > maxPower {
			return nil, fmt.Errorf("power: operating point %v power %v is not a whole number of watts up to 2^20 W", p.F, p.P)
		}
		if i > 0 {
			prev := ps[i-1]
			if p.F == prev.F {
				return nil, fmt.Errorf("power: duplicate frequency %v", p.F)
			}
			if p.V < prev.V {
				return nil, fmt.Errorf("power: voltage not monotone at %v", p.F)
			}
			if p.P <= prev.P {
				return nil, fmt.Errorf("power: power not strictly monotone at %v", p.F)
			}
		}
	}
	return &Table{points: ps}, nil
}

// MustTable is NewTable for static tables; it panics on error.
func MustTable(points []OperatingPoint) *Table {
	t, err := NewTable(points)
	if err != nil {
		panic(err)
	}
	return t
}

// Points returns a copy of the operating points, ascending in frequency.
func (t *Table) Points() []OperatingPoint {
	out := make([]OperatingPoint, len(t.points))
	copy(out, t.points)
	return out
}

// Frequencies returns the table's frequency settings as a FrequencySet.
func (t *Table) Frequencies() units.FrequencySet {
	fs := make([]units.Frequency, len(t.points))
	for i, p := range t.points {
		fs[i] = p.F
	}
	return units.MustFrequencySet(fs...)
}

// Len returns the number of operating points.
func (t *Table) Len() int { return len(t.points) }

// MaxFrequency returns the table's highest setting (the paper's f_max).
func (t *Table) MaxFrequency() units.Frequency { return t.points[len(t.points)-1].F }

// MinFrequency returns the table's lowest setting.
func (t *Table) MinFrequency() units.Frequency { return t.points[0].F }

// lookup returns the index of frequency f, or -1.
func (t *Table) lookup(f units.Frequency) int {
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].F >= f })
	if i < len(t.points) && t.points[i].F == f {
		return i
	}
	return -1
}

// IndexOf returns the index of the exact table frequency f (ascending
// order), or -1 when f is not an operating point. The index accessors
// below turn the scheduling hot path's repeated by-frequency searches into
// plain array indexing: resolve a frequency to its index once, then read
// power/voltage/frequency by index.
func (t *Table) IndexOf(f units.Frequency) int { return t.lookup(f) }

// FrequencyAtIndex returns the i-th operating point's frequency. It
// panics on an out-of-range index, like a slice.
func (t *Table) FrequencyAtIndex(i int) units.Frequency { return t.points[i].F }

// PowerAtIndex returns the i-th operating point's peak power. It panics
// on an out-of-range index, like a slice.
func (t *Table) PowerAtIndex(i int) units.Power { return t.points[i].P }

// VoltageAtIndex returns the i-th operating point's minimum voltage. It
// panics on an out-of-range index, like a slice.
func (t *Table) VoltageAtIndex(i int) units.Voltage { return t.points[i].V }

// FrequenciesAtIndices maps an assignment held in index space back to
// frequencies, in a fresh slice.
func (t *Table) FrequenciesAtIndices(indices []int) []units.Frequency {
	out := make([]units.Frequency, len(indices))
	for i, k := range indices {
		out[i] = t.points[k].F
	}
	return out
}

// SumAtIndices adds the peak powers at the given indices left to right —
// the aggregate table power of an assignment held in index space, in
// processor order, which is the accumulation Step 2's stop test is defined
// by.
func (t *Table) SumAtIndices(indices []int) units.Power {
	var sum units.Power
	for _, i := range indices {
		sum += t.points[i].P
	}
	return sum
}

// DemotedSum returns SumAtIndices for an assignment one of whose entries
// has just stepped down from index from to from−1, given the aggregate sum
// before the step: sum − (P[from] − P[from−1]), the stop-test arithmetic
// Step 2, the demand curve and the farm divide share. Whole-watt sums
// cannot round (NewTable), so its bits are the processor-order re-sum's.
func (t *Table) DemotedSum(sum units.Power, from int) units.Power {
	return sum - (t.points[from].P - t.points[from-1].P)
}

// PowerAt returns the peak power at exactly the table frequency f.
func (t *Table) PowerAt(f units.Frequency) (units.Power, error) {
	if i := t.lookup(f); i >= 0 {
		return t.points[i].P, nil
	}
	return 0, fmt.Errorf("power: frequency %v not in table", f)
}

// PowerInterp returns the power at an arbitrary frequency by linear
// interpolation between neighbouring table points; it clamps below the
// table to the lowest point and errors above the table (extrapolating peak
// power upward would under-report it).
func (t *Table) PowerInterp(f units.Frequency) (units.Power, error) {
	if f <= t.points[0].F {
		return t.points[0].P, nil
	}
	last := t.points[len(t.points)-1]
	if f > last.F {
		return 0, fmt.Errorf("power: frequency %v above table maximum %v", f, last.F)
	}
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].F >= f })
	if t.points[i].F == f {
		return t.points[i].P, nil
	}
	lo, hi := t.points[i-1], t.points[i]
	frac := float64(f-lo.F) / float64(hi.F-lo.F)
	return lo.P + units.Power(frac)*(hi.P-lo.P), nil
}

// MaxFrequencyUnder returns the highest table frequency whose peak power is
// at most budget — "select the highest frequency that yields a power value
// less than the maximum" (§4.4). ok is false when even the lowest setting
// exceeds the budget.
func (t *Table) MaxFrequencyUnder(budget units.Power) (units.Frequency, bool) {
	best := units.Frequency(0)
	ok := false
	for _, p := range t.points {
		if p.P <= budget {
			best = p.F
			ok = true
		} else {
			break
		}
	}
	return best, ok
}

// UniformIndexUnder returns the highest table index whose n-way power,
// P[i]·n, is at most budget: the one setting a uniform policy pins n
// processors at. When even the table minimum overshoots it returns 0 — a
// uniform pin has nowhere lower to go. The test is P·n ≤ budget, the form
// the studies that pin a fleet were written with. For n < 2³³ the product
// of a whole-watt power is exact (NewTable), so it answers as
// MaxFrequencyUnder(budget/n) does: the quotient rounds, but never onto a
// whole-watt power it lies below.
func (t *Table) UniformIndexUnder(budget units.Power, n int) int {
	fi := 0
	for i, p := range t.points {
		if float64(p.P)*float64(n) <= float64(budget) {
			fi = i
		} else {
			break
		}
	}
	return fi
}

// PaperTable1 returns the paper's Table 1 verbatim: sixteen operating
// points from 250 MHz/9 W to 1 GHz/140 W in 50 MHz steps, the frequencies
// available to the scheduler on the p630. Voltages come from
// DefaultVoltageCurve since Table 1 lists only frequency and power; the
// platform's nominal point (1 GHz at 1.3 V, §7.1) anchors the curve.
func PaperTable1() *Table {
	curve := DefaultVoltageCurve()
	watts := []struct {
		mhz float64
		w   float64
	}{
		{250, 9}, {300, 13}, {350, 18}, {400, 22},
		{450, 28}, {500, 35}, {550, 41}, {600, 48},
		{650, 57}, {700, 66}, {750, 75}, {800, 84},
		{850, 95}, {900, 109}, {950, 123}, {1000, 140},
	}
	points := make([]OperatingPoint, len(watts))
	for i, e := range watts {
		f := units.MHz(e.mhz)
		points[i] = OperatingPoint{F: f, V: curve.VoltageFor(f), P: units.Watts(e.w)}
	}
	return MustTable(points)
}

// Section5Table returns the coarse five-setting table of the paper's §5
// worked example: {0.6, 0.7, 0.8, 0.9, 1.0} GHz with the corresponding
// Table 1 powers (48, 66, 84, 109, 140 W).
func Section5Table() *Table {
	curve := DefaultVoltageCurve()
	entries := []struct {
		mhz float64
		w   float64
	}{
		{600, 48}, {700, 66}, {800, 84}, {900, 109}, {1000, 140},
	}
	points := make([]OperatingPoint, len(entries))
	for i, e := range entries {
		f := units.MHz(e.mhz)
		points[i] = OperatingPoint{F: f, V: curve.VoltageFor(f), P: units.Watts(e.w)}
	}
	return MustTable(points)
}
