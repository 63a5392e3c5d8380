package memhier

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestP630MatchesPaperPlatform(t *testing.T) {
	h := P630()
	if err := h.Validate(); err != nil {
		t.Fatalf("P630 invalid: %v", err)
	}
	if h.RefClock != units.GHz(1) {
		t.Errorf("RefClock = %v, want 1GHz", h.RefClock)
	}
	// §7.1: 15 cycles to L2, 113 to L3, 393 to memory.
	if h.LatencyCycles[L2] != 15 || h.LatencyCycles[L3] != 113 || h.LatencyCycles[DRAM] != 393 {
		t.Errorf("latencies = %v", h.LatencyCycles)
	}
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{L1: "L1", L2: "L2", L3: "L3", DRAM: "mem", Level(9): "Level(9)"}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestValidateCatchesBrokenHierarchies(t *testing.T) {
	base := P630()

	broken := base
	broken.RefClock = 0
	if broken.Validate() == nil {
		t.Error("zero clock accepted")
	}

	broken = base
	broken.LatencyCycles[L3] = 10 // below L2's 15
	if broken.Validate() == nil {
		t.Error("non-monotone latency accepted")
	}

	broken = base
	broken.CapacityBytes[DRAM] = 1 // below L3
	if broken.Validate() == nil {
		t.Error("non-monotone capacity accepted")
	}

	broken = base
	broken.LatencyCycles[L1] = -1
	if broken.Validate() == nil {
		t.Error("negative latency accepted")
	}
}

func TestServiceTimeIsFrequencyInvariant(t *testing.T) {
	h := P630()
	// 15 cycles at 1 GHz = 15 ns.
	if got := h.ServiceTime(L2); math.Abs(got-15e-9) > 1e-18 {
		t.Errorf("ServiceTime(L2) = %v, want 15ns", got)
	}
	tL2, tL3, tMem := h.ServiceTimes()
	if tL2 != h.ServiceTime(L2) || tL3 != h.ServiceTime(L3) || tMem != h.ServiceTime(DRAM) {
		t.Error("ServiceTimes disagrees with ServiceTime")
	}
}

func TestAccessRatesValidate(t *testing.T) {
	good := AccessRates{L2PerInstr: 0.01, L3PerInstr: 0.002, MemPerInstr: 0.001}
	if err := good.Validate(); err != nil {
		t.Errorf("good rates rejected: %v", err)
	}
	for _, bad := range []AccessRates{
		{L2PerInstr: -0.1},
		{L3PerInstr: 1.5},
		{MemPerInstr: math.NaN()},
	} {
		if bad.Validate() == nil {
			t.Errorf("bad rates accepted: %+v", bad)
		}
	}
}

func TestStallTimePerInstr(t *testing.T) {
	h := P630()
	r := AccessRates{L2PerInstr: 0.1, L3PerInstr: 0.01, MemPerInstr: 0.001}
	want := 0.1*15e-9 + 0.01*113e-9 + 0.001*393e-9
	if got := r.StallTimePerInstr(h); math.Abs(got-want) > 1e-18 {
		t.Errorf("StallTimePerInstr = %v, want %v", got, want)
	}
}

func TestMissModelValidate(t *testing.T) {
	good := MissModel{FootprintBytes: 1 << 30, AccessesPerInstr: 0.3, L1MissRatio: 0.05, Theta: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("good model rejected: %v", err)
	}
	for _, bad := range []MissModel{
		{FootprintBytes: 0, AccessesPerInstr: 0.3, L1MissRatio: 0.05, Theta: 0.5},
		{FootprintBytes: 1, AccessesPerInstr: 1.3, L1MissRatio: 0.05, Theta: 0.5},
		{FootprintBytes: 1, AccessesPerInstr: 0.3, L1MissRatio: -0.1, Theta: 0.5},
		{FootprintBytes: 1, AccessesPerInstr: 0.3, L1MissRatio: 0.05, Theta: 0},
	} {
		if bad.Validate() == nil {
			t.Errorf("bad model accepted: %+v", bad)
		}
	}
}

func TestMissModelSmallFootprintResolvesInL2(t *testing.T) {
	h := P630()
	m := MissModel{FootprintBytes: 512 << 10, AccessesPerInstr: 0.3, L1MissRatio: 0.05, Theta: 0.5}
	r, err := m.Rates(h)
	if err != nil {
		t.Fatal(err)
	}
	// Footprint below L2 capacity: everything post-L1 hits L2.
	if r.L3PerInstr != 0 || r.MemPerInstr != 0 {
		t.Errorf("small footprint should stay in L2: %+v", r)
	}
	if math.Abs(r.L2PerInstr-0.3*0.05) > 1e-12 {
		t.Errorf("L2 rate = %v, want 0.015", r.L2PerInstr)
	}
}

func TestMissModelHugeFootprintMostlyDRAM(t *testing.T) {
	h := P630()
	// §7.3: large footprint → L1 miss highly likely to reach memory.
	m := MissModel{FootprintBytes: 2 << 30, AccessesPerInstr: 0.35, L1MissRatio: 0.08, Theta: 0.5}
	r, err := m.Rates(h)
	if err != nil {
		t.Fatal(err)
	}
	if r.MemPerInstr <= r.L2PerInstr || r.MemPerInstr <= r.L3PerInstr {
		t.Errorf("huge footprint should be DRAM-dominated: %+v", r)
	}
}

func TestMissModelRatesConserveTraffic(t *testing.T) {
	h := P630()
	err := quick.Check(func(fpMB uint16, apiRaw, missRaw uint8) bool {
		m := MissModel{
			FootprintBytes:   int64(fpMB%4096+1) << 20,
			AccessesPerInstr: float64(apiRaw%100) / 100,
			L1MissRatio:      float64(missRaw%100) / 100,
			Theta:            0.5,
		}
		r, err := m.Rates(h)
		if err != nil {
			return false
		}
		total := r.L2PerInstr + r.L3PerInstr + r.MemPerInstr
		want := m.AccessesPerInstr * m.L1MissRatio
		return math.Abs(total-want) < 1e-12 &&
			r.L2PerInstr >= 0 && r.L3PerInstr >= 0 && r.MemPerInstr >= 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestMissModelMonotoneInFootprint(t *testing.T) {
	h := P630()
	prevMem := -1.0
	for _, mb := range []int64{1, 16, 256, 4096, 65536} {
		m := MissModel{FootprintBytes: mb << 20, AccessesPerInstr: 0.3, L1MissRatio: 0.05, Theta: 0.5}
		r, err := m.Rates(h)
		if err != nil {
			t.Fatal(err)
		}
		if r.MemPerInstr < prevMem {
			t.Errorf("DRAM rate not monotone in footprint at %dMB: %v < %v", mb, r.MemPerInstr, prevMem)
		}
		prevMem = r.MemPerInstr
	}
}

func TestContentionFactor(t *testing.T) {
	c := Contention{MaxInflation: 1.3}
	if got := c.Factor(0, 1e9); got != 1 {
		t.Errorf("no partner traffic: factor = %v, want 1", got)
	}
	if got := c.Factor(1e9, 1e9); math.Abs(got-1.3) > 1e-12 {
		t.Errorf("saturated partner: factor = %v, want 1.3", got)
	}
	if got := c.Factor(5e8, 1e9); math.Abs(got-1.15) > 1e-12 {
		t.Errorf("half-saturated partner: factor = %v, want 1.15", got)
	}
	// Over-saturation clamps.
	if got := c.Factor(9e9, 1e9); math.Abs(got-1.3) > 1e-12 {
		t.Errorf("over-saturated partner: factor = %v, want 1.3", got)
	}
	// Disabled contention.
	if got := (Contention{}).Factor(1e9, 1e9); got != 1 {
		t.Errorf("disabled contention: factor = %v, want 1", got)
	}
}
