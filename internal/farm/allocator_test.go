package farm

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/units"
)

// curveOf builds a demand curve from (power, loss) pairs.
func curveOf(pairs ...float64) DemandCurve {
	var c DemandCurve
	for i := 0; i+1 < len(pairs); i += 2 {
		c.Points = append(c.Points, DemandPoint{Power: units.Watts(pairs[i]), Loss: pairs[i+1]})
	}
	return c
}

func mustAllocator(t *testing.T, cfg AllocatorConfig) *Allocator {
	t.Helper()
	a, err := NewAllocator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAllocatorValidation(t *testing.T) {
	base := AllocatorConfig{
		Source:   Static(units.Watts(100)),
		Members:  []Member{{Name: "a", Floor: units.Watts(10)}},
		Periods:  1,
		LeaseTTL: 1,
	}
	cases := []struct {
		name   string
		mutate func(*AllocatorConfig)
	}{
		{"nil source", func(c *AllocatorConfig) { c.Source = nil }},
		{"no members", func(c *AllocatorConfig) { c.Members = nil }},
		{"unnamed member", func(c *AllocatorConfig) { c.Members = []Member{{Floor: units.Watts(1)}} }},
		{"duplicate member", func(c *AllocatorConfig) {
			c.Members = append(c.Members, Member{Name: "a", Floor: units.Watts(1)})
		}},
		{"zero floor", func(c *AllocatorConfig) { c.Members[0].Floor = 0 }},
		{"zero TTL", func(c *AllocatorConfig) { c.LeaseTTL = 0 }},
		{"safety ≥ 1", func(c *AllocatorConfig) { c.Safety = 1 }},
		{"zero periods", func(c *AllocatorConfig) { c.Periods = 0 }},
		{"unknown policy", func(c *AllocatorConfig) { c.Policy = "fair-share" }},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Members = append([]Member(nil), base.Members...)
		tc.mutate(&cfg)
		if _, err := NewAllocator(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestAllocateDesiredFits: with headroom for every desire, each member is
// leased exactly its ε-constrained desire.
func TestAllocateDesiredFits(t *testing.T) {
	a := mustAllocator(t, AllocatorConfig{
		Source: Static(units.Watts(500)),
		Members: []Member{
			{Name: "a", Floor: units.Watts(10)},
			{Name: "b", Floor: units.Watts(10)},
		},
		Periods:  1,
		LeaseTTL: 1,
	})
	alloc, err := a.Allocate(0, "timer", []Demand{
		{Curve: curveOf(100, 0, 60, 0.2, 20, 0.5), Reachable: true},
		{Curve: curveOf(80, 0, 40, 0.1, 20, 0.4), Reachable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.Met {
		t.Error("Met = false with ample headroom")
	}
	if got := alloc.Leases[0].Budget.W(); got != 100 {
		t.Errorf("member a leased %vW, want its 100W desire", got)
	}
	if got := alloc.Leases[1].Budget.W(); got != 80 {
		t.Errorf("member b leased %vW, want its 80W desire", got)
	}
	if got := alloc.Charged.W(); got != 180 {
		t.Errorf("charged %vW, want 180", got)
	}
}

// TestAllocateLeastMarginalLoss replays the greedy by hand: from desires
// 100+50=150 over a 130 W budget, the cheapest demotion is b's 0.05-loss
// step (→140), then a's 0.1-loss step (→120 ≤ 130).
func TestAllocateLeastMarginalLoss(t *testing.T) {
	a := mustAllocator(t, AllocatorConfig{
		Source: Static(units.Watts(130)),
		Members: []Member{
			{Name: "a", Floor: units.Watts(10)},
			{Name: "b", Floor: units.Watts(10)},
		},
		Periods:  1,
		LeaseTTL: 1,
	})
	alloc, err := a.Allocate(0, "timer", []Demand{
		{Curve: curveOf(100, 0, 80, 0.1, 60, 0.3), Reachable: true},
		{Curve: curveOf(50, 0, 40, 0.05, 30, 0.2), Reachable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.Met {
		t.Error("Met = false though 120W fits 130W")
	}
	if got := alloc.Leases[0].Budget.W(); got != 80 {
		t.Errorf("member a leased %vW, want 80 (one demotion)", got)
	}
	if got := alloc.Leases[1].Budget.W(); got != 40 {
		t.Errorf("member b leased %vW, want 40 (one demotion)", got)
	}
}

// TestAllocateTieBreaksTowardPowerFreed: equal marginal loss demotes the
// member that frees more power, converging in fewer steps.
func TestAllocateTieBreaksTowardPowerFreed(t *testing.T) {
	a := mustAllocator(t, AllocatorConfig{
		Source: Static(units.Watts(140)),
		Members: []Member{
			{Name: "a", Floor: units.Watts(10)},
			{Name: "b", Floor: units.Watts(10)},
		},
		Periods:  1,
		LeaseTTL: 1,
	})
	alloc, err := a.Allocate(0, "timer", []Demand{
		{Curve: curveOf(100, 0, 70, 0.1), Reachable: true},
		{Curve: curveOf(50, 0, 45, 0.1), Reachable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.Leases[0].Budget.W(); got != 70 {
		t.Errorf("member a leased %vW, want 70 (30W freed beats 5W at equal loss)", got)
	}
	if got := alloc.Leases[1].Budget.W(); got != 50 {
		t.Errorf("member b leased %vW, want its untouched 50W desire", got)
	}
}

// TestAllocateFloorsInfeasible: when even every floor exceeds the budget,
// floors are still granted and Met reports the miss — Step 2's met=false
// one level up.
func TestAllocateFloorsInfeasible(t *testing.T) {
	a := mustAllocator(t, AllocatorConfig{
		Source: Static(units.Watts(30)),
		Members: []Member{
			{Name: "a", Floor: units.Watts(20)},
			{Name: "b", Floor: units.Watts(20)},
		},
		Periods:  1,
		LeaseTTL: 1,
	})
	alloc, err := a.Allocate(0, "timer", []Demand{
		{Curve: curveOf(100, 0, 20, 0.5), Reachable: true},
		{Curve: curveOf(100, 0, 20, 0.5), Reachable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Met {
		t.Error("Met = true though floors alone exceed the budget")
	}
	for i, l := range alloc.Leases {
		if l.Budget.W() != 20 {
			t.Errorf("lease %d = %vW, want the 20W floor", i, l.Budget)
		}
	}
}

// TestAllocateChargesUnreachable mirrors the netcluster worst-case rule:
// a partitioned member keeps its outstanding lease charged until TTL,
// then its floor, and the reachable members are granted only what is left.
func TestAllocateChargesUnreachable(t *testing.T) {
	a := mustAllocator(t, AllocatorConfig{
		Source: Static(units.Watts(200)),
		Members: []Member{
			{Name: "a", Floor: units.Watts(10)},
			{Name: "b", Floor: units.Watts(10)},
		},
		Periods:  1,
		LeaseTTL: 1,
	})
	da := Demand{Curve: curveOf(150, 0, 120, 0.1, 90, 0.3, 10, 0.9), Reachable: true}
	db := Demand{Curve: curveOf(80, 0, 10, 0.6), Reachable: true}
	if _, err := a.Allocate(0, "timer", []Demand{da, db}); err != nil {
		t.Fatal(err)
	}
	// b partitioned at t=0.5: its 80 W lease (expires t=1) stays charged,
	// so a can be granted at most 120 W.
	alloc, err := a.Allocate(0.5, "timer", []Demand{da, {Reachable: false}})
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Leases) != 1 || alloc.Leases[0].Member != "a" {
		t.Fatalf("leases = %+v, want exactly one grant to a", alloc.Leases)
	}
	if got := alloc.Leases[0].Budget.W(); got != 120 {
		t.Errorf("a leased %vW with b's 80W still charged, want 120", got)
	}
	if got := alloc.Charged.W(); got != 200 {
		t.Errorf("charged %vW, want 200 (120 granted + 80 stale)", got)
	}
	// Past b's lease expiry only its floor is charged.
	alloc, err = a.Allocate(1.5, "timer", []Demand{da, {Reachable: false}})
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.Leases[0].Budget.W(); got != 150 {
		t.Errorf("a leased %vW after b fell to its 10W floor, want its 150W desire", got)
	}
	if got := alloc.Charged.W(); got != 160 {
		t.Errorf("charged %vW, want 160 (150 granted + 10 floor)", got)
	}
}

// TestAllocateRejectsBadDemands covers demand validation.
func TestAllocateRejectsBadDemands(t *testing.T) {
	a := mustAllocator(t, AllocatorConfig{
		Source:   Static(units.Watts(100)),
		Members:  []Member{{Name: "a", Floor: units.Watts(10)}},
		Periods:  1,
		LeaseTTL: 1,
	})
	if _, err := a.Allocate(0, "timer", nil); err == nil {
		t.Error("wrong demand count accepted")
	}
	if _, err := a.Allocate(0, "timer", []Demand{{Reachable: true}}); err == nil {
		t.Error("empty curve accepted for a reachable member")
	}
	bad := curveOf(50, 0.2, 40, 0.1) // loss decreasing
	if _, err := a.Allocate(0, "timer", []Demand{{Curve: bad, Reachable: true}}); err == nil {
		t.Error("loss-decreasing curve accepted")
	}
	low := curveOf(50, 0, 5, 0.5) // curve floor below the configured floor
	if _, err := a.Allocate(0, "timer", []Demand{{Curve: low, Reachable: true}}); err == nil {
		t.Error("curve floor below member floor accepted")
	}
}

// roundFixture is a two-member allocator on a 200 W feed that drops to
// dropTo at t=0.35, and a gather serving fixed curves: a's walks down to
// its floor, b wants 80 W or nothing. down marks members unreachable.
type roundFixture struct {
	a    *Allocator
	down [2]bool
	fail [2]error
}

func newRoundFixture(t *testing.T, periods int, ttl, dropTo float64) *roundFixture {
	t.Helper()
	src, err := power.NewBudgetSchedule(units.Watts(200),
		power.BudgetEvent{At: 0.35, Budget: units.Watts(dropTo), Label: "drop"})
	if err != nil {
		t.Fatal(err)
	}
	return &roundFixture{a: mustAllocator(t, AllocatorConfig{
		Source: src,
		Members: []Member{
			{Name: "a", Floor: units.Watts(10)},
			{Name: "b", Floor: units.Watts(10)},
		},
		Periods:  periods,
		LeaseTTL: ttl,
	})}
}

func (f *roundFixture) gather(i int) (DemandCurve, bool, error) {
	curves := [2]DemandCurve{
		curveOf(150, 0, 120, 0.1, 90, 0.3, 10, 0.9),
		curveOf(80, 0, 10, 0.6),
	}
	return curves[i], !f.down[i], f.fail[i]
}

// round runs quantum i (t = i·0.1) and returns the pass's trigger, "" when
// none ran, checking Σ charged ≤ budget after it either way.
func (f *roundFixture) round(t *testing.T, i int) string {
	t.Helper()
	now := float64(i) * 0.1
	alloc, ran, err := f.a.Round(now, f.gather)
	if err != nil {
		t.Fatalf("t=%.1f: %v", now, err)
	}
	if charged, budget := f.a.Charged(now), f.a.cfg.Source.BudgetAt(now); charged > budget {
		t.Fatalf("t=%.1f: charged %v exceeds budget %v", now, charged, budget)
	}
	if !ran {
		return ""
	}
	return alloc.Trigger
}

// cadenceAt returns a cadence due every periods ticks, ticked n times.
func cadenceAt(t *testing.T, periods, n int) engine.Cadence {
	t.Helper()
	c, err := engine.NewCadence(periods)
	if err != nil {
		t.Fatal(err)
	}
	for range n {
		c.Tick()
	}
	return c
}

// TestRoundCadence: the first call is the initial pass and does not tick;
// with Periods = 3 a timer pass lands on every third later call and not
// before.
func TestRoundCadence(t *testing.T) {
	f := newRoundFixture(t, 3, 1, 200)
	if got := f.round(t, 0); got != "initial" {
		t.Fatalf("first round ran %q, want the initial pass", got)
	}
	if f.a.cadence != cadenceAt(t, 3, 0) {
		t.Fatalf("initial pass ticked the cadence: %+v", f.a.cadence)
	}
	for i := 0; i < 2; i++ {
		h := f.a.Holder(i)
		if l, ok := h.Lease(); !ok || l.Member != h.Name() || l.Granted != 0 {
			t.Errorf("holder %d after the initial pass: lease %+v, granted %v", i, l, ok)
		}
	}
	var got []string
	for i := 1; i <= 7; i++ {
		got = append(got, f.round(t, i))
	}
	want := []string{"", "", "timer", "", "", "timer", ""}
	if !slices.Equal(got, want) {
		t.Errorf("rounds 1..7 ran %q, want %q", got, want)
	}
}

// TestTriggerEdges: the drop at t=0.35 lands below the 200 W charged
// (150+80 > 200, so the initial pass demotes a to 120 W), and quantum 4
// runs a budget-change pass under the new 120 W whatever the cadence says.
// With Periods = 5 that is one quantum before the timer edge, which then
// runs its own pass; with Periods = 4 the two coincide and the
// budget-change pass consumes the edge — one pass, and the next timer pass
// a full period later.
func TestTriggerEdges(t *testing.T) {
	for _, tc := range []struct {
		periods int
		want    []string
	}{
		{5, []string{"initial", "", "", "", "budget-change", "timer", "", "", ""}},
		{4, []string{"initial", "", "", "", "budget-change", "", "", "", "timer"}},
	} {
		f := newRoundFixture(t, tc.periods, 1, 120)
		var got []string
		for i := range tc.want {
			got = append(got, f.round(t, i))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("Periods %d: rounds ran %q, want %q", tc.periods, got, tc.want)
		}
		if f.a.cadence != cadenceAt(t, tc.periods, len(tc.want)-1) {
			t.Errorf("Periods %d: cadence %+v after %d later rounds", tc.periods, f.a.cadence, len(tc.want)-1)
		}
	}
}

// TestRoundUnreachableMember: a member whose gather says ok == false is
// not re-granted; its stale lease stays charged until TTL and its floor
// after, and the reachable member is granted only what is left.
func TestRoundUnreachableMember(t *testing.T) {
	f := newRoundFixture(t, 1, 0.25, 200)
	f.round(t, 0) // a 120 W, b 80 W, both expiring at t=0.25
	f.down[1] = true
	f.round(t, 1)
	if l, _ := f.a.Holder(1).Lease(); l.Granted != 0 {
		t.Errorf("unreachable b re-granted at t=%v", l.Granted)
	}
	if l, _ := f.a.Holder(0).Lease(); l.Granted != 0.1 || l.Budget.W() != 120 {
		t.Errorf("a's lease = %+v, want 120 W granted at t=0.1 (b's 80 W still charged)", l)
	}
	if got := f.a.Charged(0.1).W(); got != 200 {
		t.Errorf("charged %v W at t=0.1, want 200 (120 granted + 80 stale)", got)
	}
	f.round(t, 2)
	f.round(t, 3) // past b's expiry at t=0.25: only its floor is charged
	if l, _ := f.a.Holder(0).Lease(); l.Budget.W() != 150 {
		t.Errorf("a leased %v after b fell to its floor, want its 150 W desire", l.Budget)
	}
	if got := f.a.Charged(0.3).W(); got != 160 {
		t.Errorf("charged %v W at t=0.3, want 160 (150 granted + 10 floor)", got)
	}
	if got := f.a.Holder(1).BudgetAt(0.3).W(); got != 10 {
		t.Errorf("b's holder yields %v W past its expiry, want the 10 W floor", got)
	}
}

// TestRoundGatherError: a gather error comes back naming the member, and
// no holder's lease has moved.
func TestRoundGatherError(t *testing.T) {
	f := newRoundFixture(t, 1, 1, 200)
	f.round(t, 0)
	boom := errors.New("curve unavailable")
	f.fail[1] = boom
	_, ran, err := f.a.Round(0.1, f.gather)
	if ran || !errors.Is(err, boom) || !strings.Contains(err.Error(), "member b") {
		t.Fatalf("Round = ran %v, err %v; want no pass and an error naming member b", ran, err)
	}
	for i := 0; i < 2; i++ {
		if l, _ := f.a.Holder(i).Lease(); l.Granted != 0 {
			t.Errorf("holder %d re-granted at t=%v by a failed round", i, l.Granted)
		}
	}
}

// TestEqualSplitPolicy: each reachable member gets the cheapest curve
// point fitting an equal share.
func TestEqualSplitPolicy(t *testing.T) {
	a := mustAllocator(t, AllocatorConfig{
		Source: Static(units.Watts(300)),
		Members: []Member{
			{Name: "hungry", Floor: units.Watts(10)},
			{Name: "modest", Floor: units.Watts(10)},
			{Name: "idle", Floor: units.Watts(10)},
		},
		Periods:  1,
		LeaseTTL: 1,
		Policy:   PolicyEqualSplit,
	})
	alloc, err := a.Allocate(0, "timer", []Demand{
		{Curve: curveOf(250, 0, 95, 0.4, 10, 0.9), Reachable: true},
		{Curve: curveOf(90, 0, 10, 0.5), Reachable: true},
		{Curve: curveOf(30, 0, 10, 0.2), Reachable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Share = 100 W each: hungry fits only its 95 W point (big loss),
	// modest its 90 W desire, idle its 30 W desire — the waste the
	// least-loss policy exists to avoid.
	want := []float64{95, 90, 30}
	for i, l := range alloc.Leases {
		if l.Budget.W() != want[i] {
			t.Errorf("lease %s = %vW, want %v", l.Member, l.Budget, want[i])
		}
	}
	if !alloc.Met {
		t.Error("Met = false though every share fits")
	}
}

// TestHolderExpiryOnce: the holder yields the lease until expiry, falls
// back to the floor with exactly one lease-expire event, and a re-grant
// re-arms the edge.
func TestHolderExpiryOnce(t *testing.T) {
	var buf obs.Buffer
	h, err := NewHolder("web", units.Watts(50), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.BudgetAt(0).W(); got != 50 {
		t.Errorf("budget before any grant = %vW, want the 50W floor", got)
	}
	h.Grant(Lease{Member: "web", Budget: units.Watts(300), Granted: 0, Expires: 1})
	if got := h.BudgetAt(0.5).W(); got != 300 {
		t.Errorf("budget mid-lease = %vW, want 300", got)
	}
	if got := h.BudgetAt(1.2).W(); got != 50 {
		t.Errorf("budget past expiry = %vW, want the floor", got)
	}
	h.BudgetAt(1.5)
	if n := buf.Count(obs.EventLeaseExpire, ""); n != 1 {
		t.Fatalf("%d lease-expire events, want exactly 1", n)
	}
	h.Grant(Lease{Member: "web", Budget: units.Watts(200), Granted: 2, Expires: 3})
	if got := h.BudgetAt(2.5).W(); got != 200 {
		t.Errorf("budget after re-grant = %vW, want 200", got)
	}
	h.BudgetAt(3.5)
	if n := buf.Count(obs.EventLeaseExpire, ""); n != 2 {
		t.Errorf("%d lease-expire events after second expiry, want 2", n)
	}
	if _, err := NewHolder("", units.Watts(1), nil); err == nil {
		t.Error("unnamed holder accepted")
	}
	if _, err := NewHolder("x", 0, nil); err == nil {
		t.Error("zero floor accepted")
	}
}
