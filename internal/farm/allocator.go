package farm

import (
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/units"
)

// Member is one cluster under farm allocation: a name and the floor
// budget it falls back to when its lease expires. The floor is also what
// the allocator charges for a member it cannot reach once that member's
// last lease has run out — until then the stale lease stays charged, the
// netcluster worst-case-reservation rule one level up.
type Member struct {
	Name  string
	Floor units.Power
}

// Demand is one member's refreshed state for a reallocation pass. An
// unreachable member (partitioned away) contributes no curve; the
// allocator keeps charging its outstanding lease, then its floor.
type Demand struct {
	Curve     DemandCurve
	Reachable bool
}

// Allocation summarises one reallocation pass.
type Allocation struct {
	At      float64
	Trigger string
	// Budget is the source budget at the pass; Allocatable is what the
	// allocator divided after the safety discount.
	Budget      units.Power
	Allocatable units.Power
	// Charged is Σ(granted leases) + Σ(charges for unreachable members) —
	// the total held against the budget, which must stay ≤ Budget.
	Charged units.Power
	// Met is false when even every member at its floor exceeds the
	// allocatable budget (floors are still granted; the overshoot is the
	// caller's to surface, exactly like Step 2's met=false).
	Met bool
	// Leases are the fresh grants, one per reachable member.
	Leases []Lease
}

// Policy selects how Allocate divides the budget across members.
type Policy string

const (
	// PolicyLeastLoss is the paper's Step-2 greedy lifted one level up:
	// starting from every cluster's ε-constrained desire, repeatedly
	// demote the cluster whose next demand-curve step down costs the
	// least marginal predicted loss, until the total fits.
	PolicyLeastLoss Policy = "least-loss"
	// PolicyEqualSplit divides the allocatable budget equally across
	// reachable members regardless of demand — the classic baseline the
	// experiment compares against.
	PolicyEqualSplit Policy = "equal-split"
)

// AllocatorConfig configures the farm allocator.
type AllocatorConfig struct {
	// Source yields the global budget over time.
	Source power.BudgetSource
	// Members are the clusters, in a fixed order that Demand slices and
	// lease bookkeeping index.
	Members []Member
	// Periods is the reallocation cadence in dispatch quanta: the driving
	// loop calls Round once per quantum and every Periods-th call after
	// the first is a timer pass, on top of the immediate budget-change
	// trigger whenever the source budget falls below the charged total.
	Periods int
	// LeaseTTL is the lifetime of each granted lease in seconds. It must
	// cover at least one reallocation period or leases would expire
	// between renewals.
	LeaseTTL float64
	// Safety is the fraction of the source budget held back when
	// granting (allocatable = budget·(1−Safety)). Against a shrinking
	// source it must cover the worst-case decay over a lease lifetime:
	// the UPS runway governor decays at most by a factor e^(−TTL/runway)
	// ≈ 1−TTL/runway between grant and expiry, so Safety ≥ TTL/runway
	// keeps Σ(leased) ≤ budget continuously, not just at grant instants.
	Safety float64
	// Policy defaults to PolicyLeastLoss.
	Policy Policy

	Sink obs.Sink
}

// Allocator divides a time-varying global budget across clusters by least
// marginal predicted loss, issuing expiring leases. It owns both ends of
// the in-process lease protocol: the timer cadence, one Holder per member
// (the lease a member holds is the lease the allocator charges — there is
// no second ledger) and the pass itself. The driving loop plugs Holder(i)
// into member i's scheduler and calls Round once per quantum. Not safe for
// concurrent use.
type Allocator struct {
	cfg     AllocatorConfig
	cadence engine.Cadence
	holders []Holder

	// scratch reused across passes.
	pos     []int
	demands []Demand

	// passID counts reallocation passes from the farm clock epoch; it
	// stamps the realloc event and its alloc span (obs.Event.PassID).
	passID uint64
}

// NewAllocator validates the configuration and builds the allocator.
func NewAllocator(cfg AllocatorConfig) (*Allocator, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("farm: allocator needs a budget source")
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("farm: allocator needs at least one member")
	}
	seen := make(map[string]bool, len(cfg.Members))
	for i, m := range cfg.Members {
		if m.Name == "" {
			return nil, fmt.Errorf("farm: member %d needs a name", i)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("farm: duplicate member %q", m.Name)
		}
		seen[m.Name] = true
		if m.Floor <= 0 {
			return nil, fmt.Errorf("farm: member %s floor %v must be positive", m.Name, m.Floor)
		}
	}
	if cfg.LeaseTTL <= 0 {
		return nil, fmt.Errorf("farm: lease TTL %v must be positive", cfg.LeaseTTL)
	}
	if cfg.Safety < 0 || cfg.Safety >= 1 {
		return nil, fmt.Errorf("farm: safety %v must be in [0,1)", cfg.Safety)
	}
	switch cfg.Policy {
	case "":
		cfg.Policy = PolicyLeastLoss
	case PolicyLeastLoss, PolicyEqualSplit:
	default:
		return nil, fmt.Errorf("farm: unknown policy %q", cfg.Policy)
	}
	cadence, err := engine.NewCadence(cfg.Periods)
	if err != nil {
		return nil, fmt.Errorf("farm: allocator: %w", err)
	}
	n := len(cfg.Members)
	a := &Allocator{
		cfg:     cfg,
		cadence: cadence,
		holders: make([]Holder, n),
		pos:     make([]int, n),
		demands: make([]Demand, n),
	}
	for i, m := range cfg.Members {
		a.holders[i] = Holder{name: m.Name, floor: m.Floor, sink: cfg.Sink}
	}
	return a, nil
}

// Holder returns member i's end of the lease protocol: the budget source
// its scheduler runs against. Every pass installs the member's fresh
// lease in it; expiry events go to the allocator's Sink.
func (a *Allocator) Holder(i int) *Holder { return &a.holders[i] }

// charge is the power held against the budget for member i at now: its
// outstanding lease while live, its floor after expiry (or before any
// grant).
func (a *Allocator) charge(i int, now float64) units.Power {
	h := &a.holders[i]
	if h.live(now) {
		return h.lease.Budget
	}
	return h.floor
}

// Charged returns Σ(outstanding leases, expired → floor) at now.
func (a *Allocator) Charged(now float64) units.Power {
	var sum units.Power
	for i := range a.cfg.Members {
		sum += a.charge(i, now)
	}
	return sum
}

// Round is the whole per-quantum contract: call it exactly once per
// dispatch quantum, before stepping the members. The first call — no pass
// has run yet — is the "initial" pass and leaves the cadence alone; every
// later call ticks the cadence once and, when a pass is due (see trigger),
// runs it. A pass
// asks gather for each member's fresh demand curve in member order
// (ok == false: the member is unreachable and contributes no curve),
// allocates, and installs every fresh lease in its member's Holder. The
// returned bool reports whether a pass ran. A gather error comes back
// naming the member, with no lease changed. The allocator reads each
// gathered curve only during the call, so a gather may hand back a curve
// on its member's scratch, as cluster.Coordinator.DemandCurve does, as
// long as no later gather of the same Round overwrites it.
func (a *Allocator) Round(now float64, gather func(i int) (DemandCurve, bool, error)) (Allocation, bool, error) {
	trigger := "initial"
	if a.passID > 0 {
		var due bool
		if trigger, due = a.trigger(now); !due {
			return Allocation{}, false, nil
		}
	}
	for i := range a.demands {
		curve, ok, err := gather(i)
		if err != nil {
			return Allocation{}, false, fmt.Errorf("farm: member %s: %w", a.cfg.Members[i].Name, err)
		}
		a.demands[i] = Demand{Curve: curve, Reachable: ok}
	}
	alloc, err := a.Allocate(now, trigger, a.demands)
	return alloc, err == nil, err
}

// trigger ticks the reallocation cadence and decides whether a pass is
// due now, and why: "budget-change" immediately whenever the source budget
// has fallen below the charged total (a supply failure, or UPS decay
// outpacing the safety margin), else "timer" on every Periods-th call. A
// budget-change pass consumes the timer edge: the pass it triggers resets
// the urgency either way.
func (a *Allocator) trigger(now float64) (trigger string, due bool) {
	timerDue := a.cadence.Tick()
	if a.cfg.Source.BudgetAt(now) < a.Charged(now) {
		return "budget-change", true
	}
	if timerDue {
		return "timer", true
	}
	return "", false
}

// Allocate runs one reallocation pass at now — the body of Round, for a
// caller that already holds the demands. demands must be indexed like the
// configured members. Reachable members get fresh leases, installed in
// their Holders; an unreachable member keeps its outstanding lease charged
// until TTL, then its floor — so Σ(leased) ≤ budget holds through
// partitions without any cooperation from the partitioned cluster.
func (a *Allocator) Allocate(now float64, trigger string, demands []Demand) (Allocation, error) {
	if len(demands) != len(a.cfg.Members) {
		return Allocation{}, fmt.Errorf("farm: %d demands for %d members", len(demands), len(a.cfg.Members))
	}
	a.passID++
	var passStart time.Time
	if a.cfg.Sink != nil {
		passStart = time.Now()
	}
	budget := a.cfg.Source.BudgetAt(now)
	allocatable := units.Power(float64(budget) * (1 - a.cfg.Safety))

	// Unreachable members are charged, not granted.
	var unreachableCharge units.Power
	for i, d := range demands {
		if !d.Reachable {
			unreachableCharge += a.charge(i, now)
			continue
		}
		if err := d.Curve.Validate(); err != nil {
			return Allocation{}, fmt.Errorf("farm: member %s: %w", a.cfg.Members[i].Name, err)
		}
		if d.Curve.Floor() < a.cfg.Members[i].Floor {
			return Allocation{}, fmt.Errorf("farm: member %s demand floor %v below configured floor %v",
				a.cfg.Members[i].Name, d.Curve.Floor(), a.cfg.Members[i].Floor)
		}
		a.pos[i] = 0
	}
	avail := allocatable - unreachableCharge

	met := true
	switch a.cfg.Policy {
	case PolicyEqualSplit:
		met = a.equalSplit(avail, demands)
	default:
		met = a.leastLoss(avail, demands)
	}

	// Issue the fresh leases and assemble the pass summary.
	alloc := Allocation{
		At:          now,
		Trigger:     trigger,
		Budget:      budget,
		Allocatable: allocatable,
		Met:         met,
	}
	for i, d := range demands {
		if !d.Reachable {
			continue
		}
		l := Lease{
			Member:  a.cfg.Members[i].Name,
			Budget:  d.Curve.Points[a.pos[i]].Power,
			Granted: now,
			Expires: now + a.cfg.LeaseTTL,
		}
		a.holders[i].Grant(l)
		alloc.Leases = append(alloc.Leases, l)
	}
	alloc.Charged = a.Charged(now)
	a.observe(&alloc, demands)
	if a.cfg.Sink != nil {
		// The reallocation pass's root span: farm passes have no phase
		// children, so one "alloc" span carries the whole duration.
		a.cfg.Sink.Emit(obs.SpanEvent(now, a.passID, "", obs.SpanAlloc, "", time.Since(passStart).Seconds()))
	}
	return alloc, nil
}

// leastLoss demotes members along their demand curves — always the member
// whose next step down costs the least marginal predicted loss, ties
// toward the larger power freed, then the lower member index — until the
// reachable total fits avail. Returns false when every member is at its
// curve floor and the total still exceeds avail.
func (a *Allocator) leastLoss(avail units.Power, demands []Demand) bool {
	for {
		var sum units.Power
		for i, d := range demands {
			if d.Reachable {
				sum += d.Curve.Points[a.pos[i]].Power
			}
		}
		if sum <= avail {
			return true
		}
		best := -1
		bestLoss := math.Inf(1)
		var bestFreed units.Power
		for i, d := range demands {
			if !d.Reachable || a.pos[i]+1 >= len(d.Curve.Points) {
				continue // unreachable, or already at the curve floor
			}
			cur, next := d.Curve.Points[a.pos[i]], d.Curve.Points[a.pos[i]+1]
			dLoss := next.Loss - cur.Loss
			freed := cur.Power - next.Power
			if dLoss < bestLoss || (dLoss == bestLoss && freed > bestFreed) {
				best, bestLoss, bestFreed = i, dLoss, freed
			}
		}
		if best < 0 {
			return false // every member at its floor, budget still exceeded
		}
		a.pos[best]++
	}
}

// equalSplit points each reachable member at the cheapest curve point
// fitting an equal share of avail (never below its curve floor). Returns
// false when a floor exceeds the share.
func (a *Allocator) equalSplit(avail units.Power, demands []Demand) bool {
	reachable := 0
	for _, d := range demands {
		if d.Reachable {
			reachable++
		}
	}
	if reachable == 0 {
		return true
	}
	share := units.Power(float64(avail) / float64(reachable))
	met := true
	for i, d := range demands {
		if !d.Reachable {
			continue
		}
		a.pos[i] = len(d.Curve.Points) - 1
		for pi, p := range d.Curve.Points {
			if p.Power <= share {
				a.pos[i] = pi
				break
			}
		}
		if d.Curve.Points[a.pos[i]].Power > share {
			met = false // even the floor exceeds the share
		}
	}
	return met
}

// observe emits the reallocation trace event.
func (a *Allocator) observe(alloc *Allocation, demands []Demand) {
	if a.cfg.Sink == nil {
		return
	}
	var clusters []obs.ClusterAlloc
	for i, m := range a.cfg.Members {
		ca := obs.ClusterAlloc{
			Cluster:     m.Name,
			AllocatedW:  a.charge(i, alloc.At).W(),
			FloorW:      m.Floor.W(),
			Unreachable: !demands[i].Reachable,
		}
		if demands[i].Reachable {
			ca.DesiredW = demands[i].Curve.Desired().W()
			ca.PredictedLoss = demands[i].Curve.Points[a.pos[i]].Loss
		}
		if l, ok := a.holders[i].Lease(); ok {
			ca.ExpiresAt = l.Expires
		}
		clusters = append(clusters, ca)
	}
	ev := obs.Event{
		Type:         obs.EventRealloc,
		At:           alloc.At,
		PassID:       a.passID,
		Trigger:      alloc.Trigger,
		BudgetW:      alloc.Budget.W(),
		ChargedW:     alloc.Charged.W(),
		HeadroomW:    (alloc.Budget - alloc.Charged).W(),
		BudgetMissed: !alloc.Met,
		Clusters:     clusters,
	}
	if rr, ok := a.cfg.Source.(RunwayReporter); ok {
		if runway := rr.RunwayAt(alloc.At, alloc.Charged); !math.IsInf(runway, 1) {
			ev.RunwaySeconds = runway
		}
	}
	a.cfg.Sink.Emit(ev)
}
