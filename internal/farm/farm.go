// Package farm is the datacenter layer above internal/cluster: it divides
// a *time-varying* global power budget across many clusters by marginal
// predicted performance cost — the paper's Step-2 least-loss greedy lifted
// one level up (§1–§2 scale the motivating supply-failure scenario from
// one machine room to a farm "serving millions of users").
//
// The package has three parts. A power.BudgetSource says where the global
// budget comes from: a static number, a power.BudgetSchedule, or the UPS
// battery model whose budget shrinks as the battery drains (a runway
// governor). DemandCurve is what each cluster exports upward: its
// budget→predicted-aggregate-loss trade-off, quantised to power.Table
// steps. Allocator runs on an engine.Cadence and greedily reallocates the
// global budget across clusters by least marginal predicted loss, issuing
// expiring budget leases so that through partitions or allocator silence
// every cluster falls back to its floor lease and Σ(leased) ≤ global
// budget holds at all times — the netcluster charged-power invariant one
// level up.
//
// farm deliberately imports only units, power, engine and obs, so
// internal/cluster can depend on it (Core exports a DemandCurve) without
// an import cycle.
package farm

import (
	"math"

	"repro/internal/power"
	"repro/internal/units"
)

// RunwayReporter is the optional power.BudgetSource extension for sources that
// can say how long they could sustain a given draw — the UPS. Sources
// without stored-energy limits report +Inf.
type RunwayReporter interface {
	RunwayAt(now float64, draw units.Power) float64
}

// Static is a constant budget — the degenerate source for scenarios where
// the grid never fails.
type Static units.Power

// BudgetAt returns the constant budget.
func (s Static) BudgetAt(float64) units.Power { return units.Power(s) }

// Failover switches from one source to another at a fixed time — the §2
// supply-failure moment at farm scale: the grid feed until At, the UPS
// after.
type Failover struct {
	At     float64
	Before power.BudgetSource
	After  power.BudgetSource
}

// BudgetAt delegates to the source active at now.
func (f Failover) BudgetAt(now float64) units.Power {
	if now < f.At {
		return f.Before.BudgetAt(now)
	}
	return f.After.BudgetAt(now)
}

// RunwayAt delegates to the active source; a source without stored-energy
// limits (no RunwayReporter) reports +Inf.
func (f Failover) RunwayAt(now float64, draw units.Power) float64 {
	src := f.Before
	if now >= f.At {
		src = f.After
	}
	if rr, ok := src.(RunwayReporter); ok {
		return rr.RunwayAt(now, draw)
	}
	return math.Inf(1)
}
