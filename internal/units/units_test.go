package units

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestFrequencyConstructorsAndAccessors(t *testing.T) {
	f := MHz(750)
	if got := f.Hz(); got != 750e6 {
		t.Errorf("MHz(750).Hz() = %v, want 7.5e8", got)
	}
	if got := f.MHz(); got != 750 {
		t.Errorf("MHz(750).MHz() = %v, want 750", got)
	}
	if got := GHz(1).GHz(); got != 1 {
		t.Errorf("GHz(1).GHz() = %v, want 1", got)
	}
}

func TestFrequencyString(t *testing.T) {
	cases := []struct {
		f    Frequency
		want string
	}{
		{GHz(1), "1GHz"},
		{MHz(750), "750MHz"},
		{MHz(0.5), "500kHz"},
		{Frequency(60), "60Hz"},
		{GHz(1.5), "1.5GHz"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.f), got, c.want)
		}
	}
}

func TestParseFrequency(t *testing.T) {
	cases := []struct {
		in   string
		want Frequency
	}{
		{"750MHz", MHz(750)},
		{"1.0 GHz", GHz(1)},
		{"1ghz", GHz(1)},
		{"250000000", Frequency(250e6)},
		{"32khz", Frequency(32e3)},
		{"60Hz", Frequency(60)},
	}
	for _, c := range cases {
		got, err := ParseFrequency(c.in)
		if err != nil {
			t.Errorf("ParseFrequency(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseFrequency(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "fastMHz", "MHz", "1.2.3GHz"} {
		if _, err := ParseFrequency(bad); err == nil {
			t.Errorf("ParseFrequency(%q): want error", bad)
		}
	}
}

func TestParseFrequencyRoundTrip(t *testing.T) {
	err := quick.Check(func(mhz uint16) bool {
		if mhz == 0 {
			return true
		}
		f := MHz(float64(mhz))
		got, err := ParseFrequency(f.String())
		return err == nil && math.Abs(got.Hz()-f.Hz()) < 1e3
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestPowerBasics(t *testing.T) {
	p := Watts(140)
	if p.W() != 140 {
		t.Errorf("Watts(140).W() = %v", p.W())
	}
	if got := p.String(); got != "140W" {
		t.Errorf("String() = %q, want 140W", got)
	}
	if got := Watts(1500).String(); got != "1.5kW" {
		t.Errorf("Watts(1500).String() = %q, want 1.5kW", got)
	}
	if got := Watts(1500).KW(); got != 1.5 {
		t.Errorf("KW() = %v, want 1.5", got)
	}
}

func TestParsePower(t *testing.T) {
	cases := []struct {
		in   string
		want Power
	}{
		{"140W", 140},
		{"0.48 kW", 480},
		{"75", 75},
		{"9w", 9},
	}
	for _, c := range cases {
		got, err := ParsePower(c.in)
		if err != nil {
			t.Errorf("ParsePower(%q): %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-9 {
			t.Errorf("ParsePower(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParsePower("watts"); err == nil {
		t.Error("ParsePower(watts): want error")
	}
}

func TestVoltage(t *testing.T) {
	v := Volts(1.3)
	if v.V() != 1.3 {
		t.Errorf("V() = %v", v.V())
	}
	if got := v.Squared(); math.Abs(got-1.69) > 1e-12 {
		t.Errorf("Squared() = %v, want 1.69", got)
	}
	if got := v.String(); got != "1.3V" {
		t.Errorf("String() = %q", got)
	}
}

func TestEnergy(t *testing.T) {
	e := EnergyOver(Watts(100), 36)
	if e.J() != 3600 {
		t.Errorf("EnergyOver(100W, 36s) = %v J, want 3600", e.J())
	}
	if got := Joules(500).String(); got != "500J" {
		t.Errorf("Joules(500).String() = %q", got)
	}
	if got := Joules(2500).String(); got != "2.5kJ" {
		t.Errorf("Joules(2500).String() = %q", got)
	}
}

func paperSet(t *testing.T) FrequencySet {
	t.Helper()
	set, err := NewFrequencySet(
		GHz(1.0), MHz(900), MHz(800), MHz(700), MHz(600),
	)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestNewFrequencySetSortsAndDedups(t *testing.T) {
	set, err := NewFrequencySet(MHz(800), MHz(600), MHz(800), GHz(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("len = %d, want 3 (deduped)", len(set))
	}
	if !sort.SliceIsSorted(set, func(i, j int) bool { return set[i] < set[j] }) {
		t.Error("set not sorted ascending")
	}
	if set[0] != MHz(600) || set.Max() != GHz(1) {
		t.Errorf("lowest/Max = %v/%v", set[0], set.Max())
	}
}

func TestNewFrequencySetRejectsBadInput(t *testing.T) {
	if _, err := NewFrequencySet(); err == nil {
		t.Error("empty set: want error")
	}
	if _, err := NewFrequencySet(MHz(-5)); err == nil {
		t.Error("negative frequency: want error")
	}
	if _, err := NewFrequencySet(0); err == nil {
		t.Error("zero frequency: want error")
	}
}

func TestFrequencySetNeighbours(t *testing.T) {
	set := paperSet(t)
	if f, ok := set.NextBelow(MHz(800)); !ok || f != MHz(700) {
		t.Errorf("NextBelow(800MHz) = %v,%v, want 700MHz,true", f, ok)
	}
	if _, ok := set.NextBelow(MHz(600)); ok {
		t.Error("NextBelow(min): want ok=false")
	}
}

func TestFrequencySetFloorCeil(t *testing.T) {
	set := paperSet(t)
	if f, ok := set.CeilOf(MHz(850)); !ok || f != MHz(900) {
		t.Errorf("CeilOf(850MHz) = %v,%v", f, ok)
	}
	if _, ok := set.CeilOf(GHz(2)); ok {
		t.Error("CeilOf above range: want ok=false")
	}
	// An exact member is its own ceiling.
	if f, _ := set.CeilOf(MHz(700)); f != MHz(700) {
		t.Errorf("CeilOf(member) = %v", f)
	}
}

func TestFrequencySetString(t *testing.T) {
	set := MustFrequencySet(MHz(600), GHz(1))
	if got := set.String(); got != "{600MHz 1GHz}" {
		t.Errorf("String() = %q", got)
	}
}

func TestMustFrequencySetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFrequencySet with no args: want panic")
		}
	}()
	MustFrequencySet()
}

// Property: NextBelow inverts the step up the set — every member above
// the minimum steps down to its predecessor.
func TestNeighbourInverseProperty(t *testing.T) {
	set := paperSet(t)
	for i, f := range set[:len(set)-1] {
		down, ok := set.NextBelow(set[i+1])
		if !ok || down != f {
			t.Errorf("NextBelow(%v) = %v, want %v", set[i+1], down, f)
		}
	}
}
