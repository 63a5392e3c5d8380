package power

import (
	"math"
	"math/rand"
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
	widest := append(good[:1:1], OperatingPoint{F: units.GHz(1), V: units.Volts(1.3), P: units.Watts(1 << 20)})
	if _, err := NewTable(widest); err != nil {
		t.Errorf("2^20 W top point rejected: %v", err)
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
		{"fractional step", []OperatingPoint{
			{F: units.MHz(500), V: units.Volts(0.9), P: units.Watts(35)},
			{F: units.GHz(1), V: units.Volts(1.3), P: units.Watts(140.5)},
		}},
		{"over 2^20 W", []OperatingPoint{
			{F: units.MHz(500), V: units.Volts(0.9), P: units.Watts(35)},
			{F: units.GHz(1), V: units.Volts(1.3), P: units.Watts(1<<20 + 1)},
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
	if i := tab.IndexOf(units.MHz(725)); i != -1 {
		t.Errorf("IndexOf off-grid = %d, want -1", i)
	}
}

func TestMinVoltageMonotone(t *testing.T) {
	tab := PaperTable1()
	prev := units.Voltage(0)
	for i, p := range tab.Points() {
		v := tab.VoltageAtIndex(tab.IndexOf(p.F))
		if v != p.V {
			t.Errorf("VoltageAtIndex(%d) = %v, want the point's %v", i, v, p.V)
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
	}
	for _, c := range cases {
		if got := c.tab.UniformIndexUnder(units.Watts(c.budget), c.n); got != c.want {
			t.Errorf("%s: UniformIndexUnder(%vW, %d) = %d, want %d", c.name, c.budget, c.n, got, c.want)
		}
	}
	// Whole-watt products are exact, so the quotient form agrees, even one
	// ulp either side of every n-way power.
	for n := 1; n <= 200; n++ {
		for _, pt := range paper.Points() {
			at := pt.P.W() * float64(n)
			for _, b := range []float64{math.Nextafter(at, 0), at, math.Nextafter(at, math.Inf(1))} {
				f, _ := paper.MaxFrequencyUnder(units.Watts(b / float64(n)))
				if got, want := paper.UniformIndexUnder(units.Watts(b), n), max(paper.IndexOf(f), 0); got != want {
					t.Fatalf("%d-way at %vW: product index %d, quotient index %d", n, b, got, want)
				}
			}
		}
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

func TestSumAtIndices(t *testing.T) {
	tab := Section5Table()
	if got := tab.SumAtIndices([]int{0, 4, 2}); got != units.Watts(48+140+84) {
		t.Errorf("SumAtIndices = %v, want 272 W", got)
	}
	if got := tab.SumAtIndices(nil); got != 0 {
		t.Errorf("SumAtIndices(nil) = %v, want 0", got)
	}
}

// TestDemotedSumIsTheResum: carrying the aggregate down a walk gives the
// bits of summing each assignment afresh, on the paper's tables and on
// random whole-watt ones with steps up to 5000 W.
func TestDemotedSumIsTheResum(t *testing.T) {
	tables := []*Table{PaperTable1(), Section5Table()}
	rng := rand.New(rand.NewSource(1))
	for len(tables) < 22 {
		pts := make([]OperatingPoint, 2+rng.Intn(15))
		w := 0
		for i := range pts {
			w += 1 + rng.Intn(5000)
			pts[i] = OperatingPoint{F: units.MHz(float64(100 * (i + 1))), V: units.Volts(1), P: units.Watts(float64(w))}
		}
		tables = append(tables, MustTable(pts))
	}
	for ti, tab := range tables {
		// Every processor walks from a random index to the floor, the
		// steps interleaved at random.
		idx := make([]int, 1+rng.Intn(100))
		var steps []int
		for cpu := range idx {
			idx[cpu] = rng.Intn(tab.Len())
			for range idx[cpu] {
				steps = append(steps, cpu)
			}
		}
		rng.Shuffle(len(steps), func(a, b int) { steps[a], steps[b] = steps[b], steps[a] })
		sum := tab.SumAtIndices(idx)
		for _, cpu := range steps {
			from := idx[cpu]
			idx[cpu]--
			sum = tab.DemotedSum(sum, from)
			if want := tab.SumAtIndices(idx); math.Float64bits(sum.W()) != math.Float64bits(want.W()) {
				t.Fatalf("table %d: after cpu %d steps down from %d: carried %v, re-sum %v", ti, cpu, from, sum, want)
			}
		}
	}
}
