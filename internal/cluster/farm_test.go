package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/farm"
	"repro/internal/fvsst"
	"repro/internal/power"
	"repro/internal/units"
)

// TestDemandCurveShape: after some run time the cluster exports a valid
// curve whose floor is every processor at the table minimum.
func TestDemandCurveShape(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(1200))
	if err := runUntil(c, 0.5); err != nil {
		t.Fatal(err)
	}
	curve, err := c.DemandCurve()
	if err != nil {
		t.Fatal(err)
	}
	if err := curve.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) < 2 {
		t.Fatalf("curve has %d points; busy CPUs should leave demotion room", len(curve.Points))
	}
	if got, want := curve.Floor(), c.FloorPower(); got != want {
		t.Errorf("curve floor %v, want the all-minimum power %v", got, want)
	}
	if curve.Desired() <= curve.Floor() {
		t.Errorf("desire %v not above floor %v", curve.Desired(), curve.Floor())
	}
}

// TestDemandCurveMatchesSchedule is the faithfulness property that makes
// the farm layer's predictions honest: for any budget, the cheapest curve
// point that fits is exactly the (power, loss) a real Step-2 pass lands
// on over the same inputs, because both walk the same greedy trajectory.
func TestDemandCurveMatchesSchedule(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(1200))
	if err := runUntil(c, 0.5); err != nil {
		t.Fatal(err)
	}
	inputs := c.buildInputs()
	curve := checkCurveIsWalk(t, c.core, inputs, 1)
	for _, budget := range []units.Power{curve.Desired() + 10, 600, 300, 150, curve.Floor()} {
		res, err := c.core.Schedule(inputs, budget)
		if err != nil {
			t.Fatal(err)
		}
		var passLoss float64
		for _, a := range res.Assignments {
			passLoss += a.PredictedLoss
		}
		// The cheapest curve point fitting the budget is the pass's.
		i := 0
		for i < len(curve.Points) && curve.Points[i].Power > budget {
			i++
		}
		if i == len(curve.Points) {
			t.Fatalf("budget %v below the curve floor %v", budget, curve.Floor())
		}
		if want := curve.Points[i]; math.Abs(passLoss-want.Loss) > 1e-9 || res.TablePower != want.Power {
			t.Errorf("budget %v: pass (%v, loss %.12f), curve point (%v, loss %.12f)",
				budget, res.TablePower, passLoss, want.Power, want.Loss)
		}
	}
}

// checkCurveIsWalk holds Curve ≡ walk at every stride-th curve point (and
// the floor): handed point k's power as its budget, a pass stops on point
// k, and the demotion that got it there is the point's Step — same
// processor, same pre-demotion index, same loss bits. The desired indices
// shipped beside the curve are the pass's Step-1 desires.
func checkCurveIsWalk(t *testing.T, core *Core, inputs []ProcInput, stride int) farm.DemandCurve {
	t.Helper()
	curve, desired, err := core.DemandCurveDesired(inputs)
	if err != nil {
		t.Fatal(err)
	}
	table := core.cfg.Table
	for k, pt := range curve.Points {
		if k%stride != 0 && k != len(curve.Points)-1 {
			continue
		}
		res, err := core.Schedule(inputs, pt.Power)
		if err != nil {
			t.Fatal(err)
		}
		if res.TablePower != pt.Power || !res.BudgetMet {
			t.Fatalf("point %d: pass under %v lands on %v (met=%v)", k, pt.Power, res.TablePower, res.BudgetMet)
		}
		for i, a := range res.Assignments {
			if got := table.IndexOf(a.Desired); got != desired[i] {
				t.Fatalf("point %d cpu %d: curve desired idx %d, pass desired idx %d", k, i, desired[i], got)
			}
		}
		if len(res.Demotions) != k {
			t.Fatalf("point %d: pass under %v made %d demotions", k, pt.Power, len(res.Demotions))
		}
		if k == 0 {
			continue
		}
		last := res.Demotions[len(res.Demotions)-1]
		if last.CPU != pt.Step.Proc || table.IndexOf(last.From) != pt.Step.Idx ||
			math.Float64bits(last.PredictedLoss) != math.Float64bits(pt.Step.Loss) {
			t.Fatalf("point %d: step %+v, pass's last demotion %+v", k, pt.Step, last)
		}
	}
	return curve
}

// TestDemandCurveMatchesScheduleWide is the same property over 512
// synthetic processors — a heap nine levels deep and a curve of several
// thousand points, sampled every 37th.
func TestDemandCurveMatchesScheduleWide(t *testing.T) {
	curve := checkCurveIsWalk(t, scaleCore(t), syntheticInputs(512, 3), 37)
	if len(curve.Points) < 4*512 {
		t.Fatalf("curve has %d points over 512 CPUs; want several demotions each", len(curve.Points))
	}
}

// TestDemandCurveMatchesScheduleWideSteps runs the property over Table 1's
// frequencies and voltages with random whole-watt powers, steps of 1 to
// 5000 W, so the running stop-test sums reach millions of watts.
func TestDemandCurveMatchesScheduleWideSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for range 4 {
		cfg := fvsst.DefaultConfig()
		pts := cfg.Table.Points()
		w := 0
		for i := range pts {
			w += 1 + rng.Intn(5000)
			pts[i].P = units.Watts(float64(w))
		}
		cfg.Table = power.MustTable(pts)
		core, err := NewCore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkCurveIsWalk(t, core, syntheticInputs(48, 4), 1)
	}
}

// TestCoordinatorBudgetSourceHolder plugs a farm lease Holder in as the
// coordinator's budget source: grants and expiries both become
// budget-change passes, and the budget tracks lease → floor.
func TestCoordinatorBudgetSourceHolder(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(900))
	h, err := farm.NewHolder("pair", units.Watts(200), nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBudgetSource(h)
	changes := watchBudgetChanges(c)
	// No lease yet: the first step drops the budget to the holder's floor.
	if err := runUntil(c, 0.2); err != nil {
		t.Fatal(err)
	}
	if got := c.Budget(); got.W() != 200 {
		t.Fatalf("budget with no lease = %v, want the 200W floor", got)
	}
	h.Grant(farm.Lease{Member: "pair", Budget: units.Watts(600), Granted: c.Now(), Expires: c.Now() + 0.3})
	if err := runUntil(c, c.Now()+0.1); err != nil {
		t.Fatal(err)
	}
	if got := c.Budget(); got.W() != 600 {
		t.Fatalf("budget mid-lease = %v, want the 600W grant", got)
	}
	if err := runUntil(c, c.Now()+0.4); err != nil {
		t.Fatal(err)
	}
	if got := c.Budget(); got.W() != 200 {
		t.Fatalf("budget past expiry = %v, want the floor again", got)
	}
	if n := len(*changes); n < 3 {
		t.Errorf("%d budget-change passes, want ≥ 3 (floor, grant, expiry)", n)
	}
}

// TestUniformLoss pins the baseline helper: full speed predicts no loss,
// the table minimum predicts the most, indexes out of range error.
func TestUniformLoss(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(1200))
	if err := runUntil(c, 0.5); err != nil {
		t.Fatal(err)
	}
	inputs := c.buildInputs()
	top := c.cfg.Table.Len() - 1
	atTop, err := c.core.UniformLoss(inputs, top)
	if err != nil {
		t.Fatal(err)
	}
	atMin, err := c.core.UniformLoss(inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if atTop > 1e-9 {
		t.Errorf("loss at full speed = %v, want ~0", atTop)
	}
	if atMin <= atTop {
		t.Errorf("loss at minimum (%v) not above loss at maximum (%v)", atMin, atTop)
	}
	if _, err := c.core.UniformLoss(inputs, -1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := c.core.UniformLoss(inputs, c.cfg.Table.Len()); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// TestAllocatorRoundAliasedCurves: Coordinator.DemandCurve hands back a
// curve on its core's scratch, and each member's curve lives on its own
// core. The allocator reads the gathered curves only during Round, so a
// Round over the aliased curves grants exactly what one over deep copies
// does, leases included.
func TestAllocatorRoundAliasedCurves(t *testing.T) {
	coords := make([]*Coordinator, 3)
	members := make([]farm.Member, len(coords))
	var floors, desires units.Power
	for i := range coords {
		c := newCluster(t, units.Watts(900), i+1)
		if err := runUntil(c, 0.5); err != nil {
			t.Fatal(err)
		}
		curve, err := c.DemandCurve()
		if err != nil {
			t.Fatal(err)
		}
		coords[i] = c
		members[i] = farm.Member{Name: fmt.Sprint("c", i), Floor: c.FloorPower()}
		floors += curve.Floor()
		desires += curve.Desired()
	}
	// Halfway between the floors and the desires: the allocator must demote.
	budget := (floors + desires) / 2
	round := func(gather func(i int) (farm.DemandCurve, error)) farm.Allocation {
		t.Helper()
		src, err := power.NewBudgetSchedule(budget)
		if err != nil {
			t.Fatal(err)
		}
		a, err := farm.NewAllocator(farm.AllocatorConfig{
			Source: src, Members: members, Periods: 10, LeaseTTL: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		alloc, ran, err := a.Round(0, func(i int) (farm.DemandCurve, bool, error) {
			curve, err := gather(i)
			return curve, true, err
		})
		if err != nil || !ran {
			t.Fatalf("round ran=%v err=%v", ran, err)
		}
		return alloc
	}
	aliased := round(func(i int) (farm.DemandCurve, error) { return coords[i].DemandCurve() })
	copied := round(func(i int) (farm.DemandCurve, error) {
		curve, err := coords[i].DemandCurve()
		curve.Points = slices.Clone(curve.Points)
		return curve, err
	})
	if !reflect.DeepEqual(aliased, copied) {
		t.Errorf("aliased curves allocate\n%+v\ndeep copies\n%+v", aliased, copied)
	}
	if len(aliased.Leases) != len(coords) || !aliased.Met || aliased.Charged > budget || aliased.Charged >= desires {
		t.Errorf("allocation %+v: want a met pass granting all %d members below their %v desire", aliased, len(coords), desires)
	}
}
