package power

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestPaperTable1Verbatim(t *testing.T) {
	tab := PaperTable1()
	if tab.Len() != 16 {
		t.Fatalf("Table 1 has %d points, want 16", tab.Len())
	}
	// Spot-check the paper's values.
	checks := map[float64]float64{250: 9, 500: 35, 600: 48, 700: 66, 750: 75, 800: 84, 900: 109, 1000: 140}
	for mhz, w := range checks {
		p, err := tab.PowerAt(units.MHz(mhz))
		if err != nil {
			t.Errorf("PowerAt(%vMHz): %v", mhz, err)
			continue
		}
		if p.W() != w {
			t.Errorf("PowerAt(%vMHz) = %v, want %vW", mhz, p, w)
		}
	}
	if tab.MaxFrequency() != units.GHz(1) || tab.MinFrequency() != units.MHz(250) {
		t.Errorf("range = %v..%v", tab.MinFrequency(), tab.MaxFrequency())
	}
}

func TestSection5Table(t *testing.T) {
	tab := Section5Table()
	if tab.Len() != 5 {
		t.Fatalf("§5 table has %d points, want 5", tab.Len())
	}
	// §5: power vector [48W, 66W, 84W, 109W, 140W] for 0.6..1.0 GHz.
	for _, c := range []struct{ mhz, w float64 }{{600, 48}, {700, 66}, {800, 84}, {900, 109}, {1000, 140}} {
		p, err := tab.PowerAt(units.MHz(c.mhz))
		if err != nil || p.W() != c.w {
			t.Errorf("PowerAt(%v) = %v,%v want %vW", c.mhz, p, err, c.w)
		}
	}
}

func TestNewTableValidation(t *testing.T) {
	good := []OperatingPoint{
		{F: units.MHz(500), V: units.Volts(0.9), P: units.Watts(35)},
		{F: units.GHz(1), V: units.Volts(1.3), P: units.Watts(140)},
	}
	if _, err := NewTable(good); err != nil {
		t.Errorf("good table rejected: %v", err)
	}
	cases := []struct {
		name string
		pts  []OperatingPoint
	}{
		{"empty", nil},
		{"zero freq", []OperatingPoint{{F: 0, V: 1, P: 1}}},
		{"zero volt", []OperatingPoint{{F: units.GHz(1), V: 0, P: 1}}},
		{"zero power", []OperatingPoint{{F: units.GHz(1), V: 1, P: 0}}},
		{"duplicate freq", []OperatingPoint{
			{F: units.GHz(1), V: 1, P: 10},
			{F: units.GHz(1), V: 1, P: 20},
		}},
		{"voltage decreasing", []OperatingPoint{
			{F: units.MHz(500), V: units.Volts(1.2), P: units.Watts(35)},
			{F: units.GHz(1), V: units.Volts(1.0), P: units.Watts(140)},
		}},
		{"power not increasing", []OperatingPoint{
			{F: units.MHz(500), V: units.Volts(0.9), P: units.Watts(35)},
			{F: units.GHz(1), V: units.Volts(1.3), P: units.Watts(35)},
		}},
	}
	for _, c := range cases {
		if _, err := NewTable(c.pts); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestNewTableSortsInput(t *testing.T) {
	pts := []OperatingPoint{
		{F: units.GHz(1), V: units.Volts(1.3), P: units.Watts(140)},
		{F: units.MHz(500), V: units.Volts(0.9), P: units.Watts(35)},
	}
	tab, err := NewTable(pts)
	if err != nil {
		t.Fatal(err)
	}
	if tab.MinFrequency() != units.MHz(500) {
		t.Errorf("MinFrequency = %v", tab.MinFrequency())
	}
	// Input slice must not be mutated.
	if pts[0].F != units.GHz(1) {
		t.Error("NewTable mutated its input")
	}
}

func TestTableLookupsErrorOffGrid(t *testing.T) {
	tab := PaperTable1()
	if _, err := tab.PowerAt(units.MHz(725)); err == nil {
		t.Error("PowerAt off-grid: want error")
	}
	if _, err := tab.MinVoltage(units.MHz(725)); err == nil {
		t.Error("MinVoltage off-grid: want error")
	}
}

func TestMinVoltageMonotone(t *testing.T) {
	tab := PaperTable1()
	prev := units.Voltage(0)
	for _, p := range tab.Points() {
		v, err := tab.MinVoltage(p.F)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Errorf("voltage decreased at %v: %v < %v", p.F, v, prev)
		}
		prev = v
	}
}

func TestPowerInterp(t *testing.T) {
	tab := PaperTable1()
	// Exact grid point.
	p, err := tab.PowerInterp(units.MHz(750))
	if err != nil || p.W() != 75 {
		t.Errorf("PowerInterp(750MHz) = %v,%v", p, err)
	}
	// Midpoint of 700 (66W) and 750 (75W) = 70.5W.
	p, err = tab.PowerInterp(units.MHz(725))
	if err != nil || math.Abs(p.W()-70.5) > 1e-9 {
		t.Errorf("PowerInterp(725MHz) = %v,%v want 70.5W", p, err)
	}
	// Below table clamps to lowest point.
	p, err = tab.PowerInterp(units.MHz(100))
	if err != nil || p.W() != 9 {
		t.Errorf("PowerInterp(100MHz) = %v,%v want 9W", p, err)
	}
	// Above table errors.
	if _, err := tab.PowerInterp(units.GHz(2)); err == nil {
		t.Error("PowerInterp above table: want error")
	}
}

func TestMaxFrequencyUnder(t *testing.T) {
	tab := PaperTable1()
	cases := []struct {
		budget float64
		want   units.Frequency
		ok     bool
	}{
		{140, units.GHz(1), true},
		{139, units.MHz(950), true},
		{75, units.MHz(750), true}, // paper: 75 W cap → 750 MHz
		{35, units.MHz(500), true}, // paper: 35 W cap → 500 MHz
		{48, units.MHz(600), true}, // paper: 48 W ↔ 600 MHz
		{9, units.MHz(250), true},
		{8, 0, false},
		{1e6, units.GHz(1), true},
	}
	for _, c := range cases {
		got, ok := tab.MaxFrequencyUnder(units.Watts(c.budget))
		if ok != c.ok || got != c.want {
			t.Errorf("MaxFrequencyUnder(%vW) = %v,%v want %v,%v", c.budget, got, ok, c.want, c.ok)
		}
	}
}

func TestUniformIndexUnder(t *testing.T) {
	paper := PaperTable1()
	tenths := MustTable([]OperatingPoint{
		{F: units.MHz(100), V: units.Volts(1), P: units.Watts(0.1)},
		{F: units.MHz(200), V: units.Volts(1), P: units.Watts(0.2)},
	})
	cases := []struct {
		name   string
		tab    *Table
		budget float64
		n      int
		want   int
	}{
		{"48-way at the table maximum", paper, 6720, 48, 15},
		{"one watt short of the maximum", paper, 6719, 48, 14},
		{"paper's 75 W cap, one processor", paper, 75, 1, 10},
		{"8-way 35 W each", paper, 280, 8, 5},
		{"fractional budget between points", paper, 8*35 - 0.5, 8, 4},
		{"exactly the 8-way minimum", paper, 72, 8, 0},
		{"below the minimum pins the minimum", paper, 10, 8, 0},
		// Where MaxFrequencyUnder(budget/n) answers one step lower: 0.2·43
		// rounds to exactly 8.6, 8.6/43 to just under 0.2.
		{"product fits where the quotient does not", tenths, 8.6, 43, 1},
	}
	for _, c := range cases {
		if got := c.tab.UniformIndexUnder(units.Watts(c.budget), c.n); got != c.want {
			t.Errorf("%s: UniformIndexUnder(%vW, %d) = %d, want %d", c.name, c.budget, c.n, got, c.want)
		}
	}
	b, n := 8.6, 43.0 // variables: the constant expression 8.6/43 is exact
	if f, _ := tenths.MaxFrequencyUnder(units.Watts(b / n)); f != units.MHz(100) {
		t.Errorf("MaxFrequencyUnder(8.6W/43) = %v: the quotient form agrees, so the last row no longer shows the difference", f)
	}
}

func TestFrequenciesSet(t *testing.T) {
	set := PaperTable1().Frequencies()
	if len(set) != 16 || set[0] != units.MHz(250) || set.Max() != units.GHz(1) {
		t.Errorf("Frequencies() = %v", set)
	}
}

func TestPointsReturnsCopy(t *testing.T) {
	tab := PaperTable1()
	pts := tab.Points()
	pts[0].P = units.Watts(9999)
	if p, _ := tab.PowerAt(units.MHz(250)); p.W() != 9 {
		t.Error("Points() exposed internal state")
	}
}

func TestMustTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustTable(nil): want panic")
		}
	}()
	MustTable(nil)
}

// TestExactSums pins the property the Step-2 running sum rests on: true
// for the whole-watt tables every shipped path builds, false as soon as a
// power is fractional or n of the largest could reach 2⁵³.
func TestExactSums(t *testing.T) {
	for name, tab := range map[string]*Table{"PaperTable1": PaperTable1(), "Section5Table": Section5Table()} {
		if !tab.ExactSums(2000) {
			t.Errorf("%s: ExactSums(2000) = false, want true (whole watts)", name)
		}
	}
	tabulated, err := tabulate(Model{C: units.Farads(80e-9), B: 1, Curve: DefaultVoltageCurve()}, PaperTable1().Frequencies())
	if err != nil {
		t.Fatal(err)
	}
	if tabulated.ExactSums(1) {
		t.Error("tabulated model: ExactSums = true for analytic powers")
	}
	varied, err := WithVoltageVariation(PaperTable1(), []float64{1.05})
	if err != nil {
		t.Fatal(err)
	}
	if varied[0].ExactSums(1) {
		t.Error("WithVoltageVariation: ExactSums = true for V²-scaled powers")
	}

	// 2⁵³ / 140 W: the last n that keeps n·P_max below 2⁵³, and the first
	// that does not.
	const limit = (1 << 53) / 140
	if tab := PaperTable1(); !tab.ExactSums(limit) || tab.ExactSums(limit+1) {
		t.Errorf("PaperTable1: ExactSums(%d) = %v, ExactSums(%d) = %v, want true then false",
			limit, tab.ExactSums(limit), limit+1, tab.ExactSums(limit+1))
	}
}

func TestSumAtIndices(t *testing.T) {
	tab := Section5Table()
	if got := tab.SumAtIndices([]int{0, 4, 2}); got != units.Watts(48+140+84) {
		t.Errorf("SumAtIndices = %v, want 272 W", got)
	}
	if got := tab.SumAtIndices(nil); got != 0 {
		t.Errorf("SumAtIndices(nil) = %v, want 0", got)
	}
}

// TestDemotedSumIsTheResum: on a whole-watt table (running difference)
// and on a V²-scaled one (re-sum) alike, carrying the aggregate down a
// walk gives the bits of summing each assignment afresh.
func TestDemotedSumIsTheResum(t *testing.T) {
	varied, err := WithVoltageVariation(PaperTable1(), []float64{1.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*Table{PaperTable1(), varied[0]} {
		idx := []int{15, 3, 9, 15, 1, 12}
		sum := tab.SumAtIndices(idx)
		for _, cpu := range []int{0, 3, 0, 2, 5, 1, 4, 0} {
			from := idx[cpu]
			idx[cpu]--
			sum = tab.DemotedSum(sum, idx, from)
			if want := tab.SumAtIndices(idx); math.Float64bits(sum.W()) != math.Float64bits(want.W()) {
				t.Fatalf("exact=%v: after cpu %d steps down from %d: carried %v, re-sum %v", tab.ExactSums(len(idx)), cpu, from, sum, want)
			}
		}
	}
}
