package units

import (
	"math"
	"math/rand"
	"testing"
)

// addLoop is the oracle AddRepeat must match bit for bit: the k additions
// themselves.
func addLoop(x, inc float64, k int) float64 {
	for i := 0; i < k; i++ {
		x += inc
	}
	return x
}

func checkAddRepeat(t *testing.T, x, inc float64, k int) {
	t.Helper()
	got, want := AddRepeat(x, inc, k), addLoop(x, inc, k)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("AddRepeat(%x, %x, %d) = %x (%#x), loop gives %x (%#x)",
			x, inc, k, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestAddRepeatCases names every case the constant-increment argument
// leans on, and every input it hands back to the plain addition.
func TestAddRepeatCases(t *testing.T) {
	const ulp1 = 0x1p-52 // ulp of [1, 2)
	odd := 1 + ulp1      // odd mantissa in [1, 2)
	belowTwo := math.Nextafter(2, 0)
	minSub := math.SmallestNonzeroFloat64
	cases := []struct {
		name   string
		x, inc float64
	}{
		// Ties: inc = (q + ½)·ulp. From an odd mantissa the first step
		// differs from all later ones, which is what the second probe add
		// is for (d measured as y1 − x fails exactly these rows).
		{"tie q=1 odd start", odd, 1.5 * ulp1},
		{"tie q=1 even start", 1, 1.5 * ulp1},
		{"tie q=2 odd start", odd, 2.5 * ulp1},
		{"tie q=2 even start", 1, 2.5 * ulp1},
		{"tie wide odd start", odd, (1<<30 + 0.5) * ulp1},
		{"half ulp odd start", odd, ulp1 / 2},
		{"half ulp even start", 1, ulp1 / 2},
		{"below half ulp (stuck)", 1, ulp1 / 4},
		{"just above half ulp", 1, math.Nextafter(ulp1/2, 1)},
		{"just below half ulp", odd, math.Nextafter(ulp1/2, 0)},
		{"round down r<½", 1, 3.25 * ulp1},
		{"round up r>½", 1, 3.75 * ulp1},
		{"zero start", 0, 0.01},
		{"zero start, clock quantum", 0, 0.001},
		{"inc > x, a binade per step", 1, 3},
		{"inc >> x", 0x1p-40, 1e10},
		{"jump ends one ulp below 2", math.Float64frombits(math.Float64bits(belowTwo) - 3*1000), 3 * ulp1},
		{"jump ends on the last even below 2", math.Float64frombits(math.Float64bits(belowTwo) - 1 - 2*500), 2 * ulp1},
		{"start one ulp below 2", belowTwo, ulp1},
		{"near overflow", math.MaxFloat64 / 2, math.MaxFloat64 / 1024},
		{"subnormal x", 5 * minSub, 0x1p-1000},
		{"subnormal inc", 0x1p-1022, 3 * minSub},
		{"both subnormal", minSub, minSub},
		{"smallest normal inc", 0, 0x1p-1022},
		{"negative inc", 100, -0.01},
		{"zero inc", 1.5, 0},
		{"negative zero inc", 0, math.Copysign(0, -1)},
		{"NaN inc", 1, math.NaN()},
		{"+Inf inc", 1, math.Inf(1)},
		{"-Inf inc", 1, math.Inf(-1)},
		{"negative x", -1, 0.01},
		{"negative x crossing zero", -0.05, 0.01},
		{"NaN x", math.NaN(), 1},
		{"+Inf x", math.Inf(1), 1},
		{"-Inf x", math.Inf(-1), 1},
		{"Table-3 energy: 140 W over 10 ms", 0, 1.4},
		{"fractional power", 12345.678, 0.0123456789},
	}
	ks := []int{0, 1, 2, 3, 4, 5, 7, 499, 500, 501, 999, 1000, 1001, 1002, 1005, 4096, 100_000}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, k := range ks {
				checkAddRepeat(t, c.x, c.inc, k)
			}
		})
	}
}

// TestAddRepeatClockHour is the run the kernel exists for: 360 000 ticks of
// a 10 ms quantum cross some 18 binades between 0 and 3600 s.
func TestAddRepeatClockHour(t *testing.T) {
	checkAddRepeat(t, 0, 0.01, 360_000)
	checkAddRepeat(t, 0, 0.001, 3_600_000)
	checkAddRepeat(t, 0, 7.46, 360_000) // 746 W × 10 ms
}

// TestAddRepeatNearbyExponents draws the regime the raw-bits fuzzer rarely
// hits: inc within a few binades of x's ulp, with a short mantissa so exact
// ties and exact multiples of the ulp are common, and runs long enough to
// cross binades.
func TestAddRepeatNearbyExponents(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 20_000; i++ {
		x := math.Float64frombits(uint64(1000+rng.Intn(50))<<52 | rng.Uint64()&(1<<52-1))
		mant := float64(1 + rng.Intn(1<<uint(1+rng.Intn(6)))) // 1 … 64: few significant bits
		inc := math.Ldexp(mant, math.Ilogb(x)-52-4+rng.Intn(12))
		checkAddRepeat(t, x, inc, rng.Intn(1<<uint(1+rng.Intn(16))))
	}
}

// TestAddRepeatSplitInvariance checks sizes no loop can reach: a run of
// 2^40 rounds must equal the same run taken in two pieces, wherever it is
// cut, and must land near k·inc (each round errs by at most half an ulp,
// so the relative drift stays under 2^40·2^-53). Returning at all pins
// termination.
func TestAddRepeatSplitInvariance(t *testing.T) {
	const total = 1 << 40
	for _, c := range []struct{ x, inc float64 }{
		{0, 0.01},
		{0, 1.4},
		{1, 1.5 * 0x1p-52},
		{1 + 0x1p-52, 2.5 * 0x1p-52},
		{3600, 7.46},
		{0x1p-1022, 0x1p-1000},
		{1e300, 1e290},
	} {
		whole := AddRepeat(c.x, c.inc, total)
		for _, a := range []int{0, 1, 3, 360_000, 1 << 20, 1<<39 + 12345, total - 2, total} {
			if split := AddRepeat(AddRepeat(c.x, c.inc, a), c.inc, total-a); math.Float64bits(split) != math.Float64bits(whole) {
				t.Errorf("x=%x inc=%x: %d+%d rounds give %x, %d at once %x", c.x, c.inc, a, total-a, split, total, whole)
			}
		}
		if exact := c.x + total*c.inc; !math.IsInf(exact, 0) && math.Abs(whole-exact) > 0x1p-12*exact {
			t.Errorf("x=%x inc=%x: 2^40 rounds give %v, far from x + k·inc = %v", c.x, c.inc, whole, exact)
		}
	}
}

// FuzzAddRepeat takes x and inc as raw bit patterns, so NaNs, infinities,
// subnormals and negative values are all reachable, and compares against
// the loop on the result's bits.
func FuzzAddRepeat(f *testing.F) {
	f.Add(math.Float64bits(0), math.Float64bits(0.01), uint32(360_000))
	f.Add(math.Float64bits(1+0x1p-52), math.Float64bits(1.5*0x1p-52), uint32(1000))
	f.Add(math.Float64bits(1), math.Float64bits(0x1p-53), uint32(10))
	f.Add(math.Float64bits(math.Nextafter(2, 0)), math.Float64bits(0x1p-52), uint32(8))
	f.Add(math.Float64bits(-1), math.Float64bits(0.25), uint32(9))
	f.Add(math.Float64bits(math.NaN()), math.Float64bits(1), uint32(5))
	f.Add(math.Float64bits(math.MaxFloat64), math.Float64bits(math.MaxFloat64), uint32(5))
	f.Add(uint64(1), uint64(3), uint32(1<<20))
	f.Fuzz(func(t *testing.T, xb, incb uint64, k uint32) {
		checkAddRepeat(t, math.Float64frombits(xb), math.Float64frombits(incb), int(k%(1<<20+1)))
	})
}
