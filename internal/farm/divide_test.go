package farm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/units"
)

// divideTable is a small synthetic operating-point table; only
// PowerAtIndex matters for the division arithmetic.
func divideTable(t *testing.T) *power.Table {
	t.Helper()
	tab, err := power.NewTable([]power.OperatingPoint{
		{F: units.MHz(600), V: units.Volts(1.0), P: units.Watts(20)},
		{F: units.MHz(800), V: units.Volts(1.1), P: units.Watts(35)},
		{F: units.MHz(1000), V: units.Volts(1.2), P: units.Watts(55)},
		{F: units.MHz(1200), V: units.Volts(1.3), P: units.Watts(80)},
		{F: units.MHz(1400), V: units.Volts(1.4), P: units.Watts(110)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// member is a synthetic cluster for the divide tests: per-processor
// desired indices and a loss for every (proc, idx) pair.
type member struct {
	desired []int
	loss    [][]float64 // loss[proc][idx]; non-increasing in idx
}

// localGreedy builds the member's demand curve the way
// cluster.Core.DemandCurveDesired does: repeatedly demote the processor
// whose next-lower-index loss is smallest (ties toward the higher
// current index, then the earlier processor), recording the step key of
// each demotion.
func localGreedy(m member, tab *power.Table) DemandCurve {
	idx := append([]int(nil), m.desired...)
	sum := func() units.Power {
		var s units.Power
		for _, i := range idx {
			s += tab.PowerAtIndex(i)
		}
		return s
	}
	var sumLoss float64
	for p, i := range idx {
		sumLoss += m.loss[p][i]
	}
	curve := DemandCurve{Points: []DemandPoint{{Power: sum(), Loss: sumLoss}}}
	for {
		best, bestLoss := -1, 0.0
		for p, i := range idx {
			if i == 0 {
				continue
			}
			l := m.loss[p][i-1]
			if best < 0 || l < bestLoss || (l == bestLoss && i > idx[best]) {
				best, bestLoss = p, l
			}
		}
		if best < 0 {
			return curve
		}
		pre := idx[best]
		sumLoss += m.loss[best][pre-1] - m.loss[best][pre]
		idx[best] = pre - 1
		curve.Points = append(curve.Points, DemandPoint{
			Power: sum(),
			Loss:  sumLoss,
			Step:  StepKey{Loss: bestLoss, Idx: pre, Proc: best},
		})
	}
}

// flatGreedy runs the same greedy over the concatenation of every
// member's processors — the flat Step-2 reference the division must
// reproduce — returning the final per-processor indices.
func flatGreedy(members []member, tab *power.Table, budget units.Power) ([]int, bool) {
	var idx []int
	var loss [][]float64
	for _, m := range members {
		idx = append(idx, m.desired...)
		loss = append(loss, m.loss...)
	}
	for {
		var sum units.Power
		for _, i := range idx {
			sum += tab.PowerAtIndex(i)
		}
		if sum <= budget {
			return idx, true
		}
		best, bestLoss := -1, 0.0
		for p, i := range idx {
			if i == 0 {
				continue
			}
			l := loss[p][i-1]
			if best < 0 || l < bestLoss || (l == bestLoss && i > idx[best]) {
				best, bestLoss = p, l
			}
		}
		if best < 0 {
			return idx, false
		}
		idx[best]--
	}
}

// applyCurve replays a member's first pos demotions onto its desired
// indices, converting a curve position back into per-processor indices.
func applyCurve(m member, c DemandCurve, pos int) []int {
	idx := append([]int(nil), m.desired...)
	for k := 1; k <= pos; k++ {
		idx[c.Points[k].Step.Proc] = c.Points[k].Step.Idx - 1
	}
	return idx
}

func randomMember(rng *rand.Rand, nProc, tableLen int) member {
	m := member{desired: make([]int, nProc), loss: make([][]float64, nProc)}
	for p := 0; p < nProc; p++ {
		m.desired[p] = 1 + rng.Intn(tableLen-1)
		// Loss is non-increasing as the index rises toward the desire,
		// zero at and above the desired point — the shape the predictor
		// produces. Build it downward from the desire.
		row := make([]float64, tableLen)
		acc := 0.0
		for i := m.desired[p] - 1; i >= 0; i-- {
			acc += rng.Float64() * 0.1
			row[i] = acc
		}
		m.loss[p] = row
	}
	return m
}

// scaledTable is divideTable with every power multiplied by 9000: whole
// watts up to 990 000 W, near NewTable's 2²⁰ W cap, so a 40 × 50 fleet's
// running stop-test sum passes 10⁹ W and must still carry the re-sum's
// bits.
func scaledTable(t *testing.T) *power.Table {
	t.Helper()
	pts := divideTable(t).Points()
	for i := range pts {
		pts[i].P *= 9000
	}
	tab, err := power.NewTable(pts)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestDivideMatchesFlatGreedy is the merge property the relay tier
// depends on: interleaving locally-greedy demand curves by step key
// reproduces the flat greedy over the union, for every budget level —
// on small random fleets and on a 40-member × 50-processor one, over a
// whole-watt table and over the same table scaled toward the 2²⁰ W cap.
func TestDivideMatchesFlatGreedy(t *testing.T) {
	tables := []struct {
		name string
		tab  *power.Table
	}{{"integral", divideTable(t)}, {"scaled", scaledTable(t)}}
	for _, tc := range tables {
		t.Run(tc.name+"/small", func(t *testing.T) {
			for seed := int64(0); seed < 30; seed++ {
				rng := rand.New(rand.NewSource(seed))
				members := make([]member, 2+rng.Intn(3))
				for i := range members {
					members[i] = randomMember(rng, 1+rng.Intn(4), tc.tab.Len())
				}
				checkDivideMatchesFlat(t, seed, members, tc.tab)
			}
		})
		t.Run(tc.name+"/40x50", func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			members := make([]member, 40)
			for i := range members {
				members[i] = randomMember(rng, 50, tc.tab.Len())
			}
			checkDivideMatchesFlat(t, 99, members, tc.tab)
		})
	}
}

func checkDivideMatchesFlat(t *testing.T, seed int64, members []member, tab *power.Table) {
	t.Helper()
	curves := make([]DemandCurve, len(members))
	desired := make([][]int, len(members))
	for i := range members {
		curves[i] = localGreedy(members[i], tab)
		desired[i] = members[i].desired
	}
	if err := curves[0].Validate(); err != nil {
		t.Fatalf("seed %d: invalid curve: %v", seed, err)
	}
	// Sweep budgets from below the floor to above the desire.
	var floor, desire units.Power
	for _, c := range curves {
		floor += c.Floor()
		desire += c.Desired()
	}
	for _, budget := range []units.Power{floor - 1, floor, (floor + desire) / 2, desire, desire + 10} {
		wantIdx, wantMet := flatGreedy(members, tab, budget)

		pos, met, err := DivideLeastLossExact(curves, desired, tab, budget)
		if err != nil {
			t.Fatalf("seed %d budget %v: %v", seed, budget, err)
		}
		if met != wantMet {
			t.Fatalf("seed %d budget %v: met %v, flat %v", seed, budget, met, wantMet)
		}
		var got []int
		for i := range members {
			got = append(got, applyCurve(members[i], curves[i], pos[i])...)
		}
		for p := range got {
			if got[p] != wantIdx[p] {
				t.Fatalf("seed %d budget %v proc %d: divide idx %d, flat %d (pos %v)",
					seed, budget, p, got[p], wantIdx[p], pos)
			}
		}
	}
}

func TestDivideExactRejectsBadShapes(t *testing.T) {
	tab := divideTable(t)
	m := member{desired: []int{2, 3}, loss: [][]float64{{0.3, 0.1, 0}, {0.5, 0.3, 0.1, 0}}}
	curve := localGreedy(m, tab)

	if _, _, err := DivideLeastLossExact([]DemandCurve{curve}, nil, tab, units.Watts(100)); err == nil {
		t.Error("mismatched desired-set count accepted")
	}
	if _, _, err := DivideLeastLossExact([]DemandCurve{{}}, [][]int{{1}}, tab, units.Watts(100)); err == nil {
		t.Error("empty curve with processors accepted")
	}
	// Inconsistent step key: desired indices that do not match the
	// curve's demotion sequence.
	if _, _, err := DivideLeastLossExact([]DemandCurve{curve}, [][]int{{0, 0}}, tab, units.Watts(1)); err == nil {
		t.Error("inconsistent step keys accepted")
	}

	// The two shapes a malformed relay report used to panic the root
	// with: a desired index outside the table, and a step key demoting a
	// processor that is already at the floor. Both must be farm: errors
	// naming the member, the processor and the index.
	for _, bad := range []int{99, -1} {
		_, _, err := DivideLeastLossExact([]DemandCurve{curve, curve}, [][]int{m.desired, {2, bad}}, tab, units.Watts(1))
		wantErrNaming(t, err, "member 1", "processor 1", fmt.Sprintf("index %d", bad))
	}
	floorStep := DemandCurve{Points: []DemandPoint{
		{Power: tab.PowerAtIndex(0)},
		{Step: StepKey{Idx: 0, Proc: 0}},
	}}
	_, _, err := DivideLeastLossExact([]DemandCurve{floorStep}, [][]int{{0}}, tab, units.Watts(1))
	wantErrNaming(t, err, "member 0", "processor 0", "index 0")

	// A non-finite step loss has no place in the key order, so which head
	// wins next would depend on where it sits: it is rejected wherever it
	// becomes a member's next point, first or later.
	for _, loss := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, k := range []int{1, 2} {
			bad := DemandCurve{Points: append([]DemandPoint(nil), curve.Points...)}
			bad.Points[k].Step.Loss = loss
			_, _, err := DivideLeastLossExact([]DemandCurve{curve, bad}, [][]int{m.desired, m.desired}, tab, units.Watts(1))
			wantErrNaming(t, err, "member 1", fmt.Sprintf("point %d", k), "not finite")
		}
	}
	// A processor outside the member's own would land on another member's
	// flat slot and could tie that member's key.
	for _, proc := range []int{2, -1} {
		bad := DemandCurve{Points: append([]DemandPoint(nil), curve.Points...)}
		bad.Points[1].Step.Proc = proc
		_, _, err := DivideLeastLossExact([]DemandCurve{bad, curve}, [][]int{m.desired, m.desired}, tab, units.Watts(1))
		wantErrNaming(t, err, "member 0", "point 1", fmt.Sprintf("processor %d", proc))
	}
}

func wantErrNaming(t *testing.T, err error, parts ...string) {
	t.Helper()
	if err == nil {
		t.Errorf("malformed report accepted, want an error naming %v", parts)
		return
	}
	for _, p := range append([]string{"farm:"}, parts...) {
		if !strings.Contains(err.Error(), p) {
			t.Errorf("error %q does not name %q", err, p)
		}
	}
}

// BenchmarkDivideLeastLossExact is the root's division at the shape the
// bench times as farm.divide_us_20x50: 20 relays' curves of 50 processors
// each over Table 1, 40 W per CPU.
func BenchmarkDivideLeastLossExact(b *testing.B) {
	b.Run("20x50", func(b *testing.B) {
		tab := power.PaperTable1()
		rng := rand.New(rand.NewSource(10))
		curves := make([]DemandCurve, 20)
		desired := make([][]int, 20)
		for i := range curves {
			m := randomMember(rng, 50, tab.Len())
			curves[i], desired[i] = localGreedy(m, tab), m.desired
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, met, err := DivideLeastLossExact(curves, desired, tab, units.Watts(40*1000))
			if err != nil || !met {
				b.Fatalf("division: met=%v err=%v", met, err)
			}
		}
	})
}
