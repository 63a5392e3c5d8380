// Package farm is the datacenter layer above internal/cluster: it divides
// a *time-varying* global power budget across many clusters by marginal
// predicted performance cost — the paper's Step-2 least-loss greedy lifted
// one level up (§1–§2 scale the motivating supply-failure scenario from
// one machine room to a farm "serving millions of users").
//
// The package has three parts. BudgetSource abstracts where the global
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
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/power"
	"repro/internal/units"
)

// BudgetSource yields the global power budget in force at a simulation
// time. Implementations must be deterministic functions of time and of
// explicitly accumulated state (the UPS), never of wall clocks or global
// RNGs, per the engine seeding convention.
type BudgetSource interface {
	BudgetAt(now float64) units.Power
}

// RunwayReporter is the optional BudgetSource extension for sources that
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

// scheduleSource adapts the existing power.BudgetSchedule (time-ordered
// budget events) to the BudgetSource interface without duplicating it.
type scheduleSource struct {
	s *power.BudgetSchedule
}

// FromSchedule wraps a power.BudgetSchedule as a BudgetSource.
func FromSchedule(s *power.BudgetSchedule) (BudgetSource, error) {
	if s == nil {
		return nil, fmt.Errorf("farm: nil budget schedule")
	}
	return scheduleSource{s: s}, nil
}

func (b scheduleSource) BudgetAt(now float64) units.Power { return b.s.At(now) }

// Failover switches from one source to another at a fixed time — the §2
// supply-failure moment at farm scale: the grid feed until At, the UPS
// after.
type Failover struct {
	At     float64
	Before BudgetSource
	After  BudgetSource
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

// ParseScheduleSpec parses a compact budget-schedule spec of the form
//
//	"900"  or  "900,1:600,3:750W"
//
// — an initial budget followed by comma-separated t:budget events — into a
// BudgetSource over a power.BudgetSchedule. Budgets accept units.ParsePower
// syntax ("600", "600W", "0.6kW"); times are simulated seconds. It is the
// shared plumbing behind the fvsst-cluster -budget-schedule flag.
func ParseScheduleSpec(spec string) (BudgetSource, error) {
	parts := strings.Split(spec, ",")
	initial, err := units.ParsePower(parts[0])
	if err != nil {
		return nil, fmt.Errorf("farm: schedule spec %q: %w", spec, err)
	}
	var events []power.BudgetEvent
	for _, part := range parts[1:] {
		at, budget, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("farm: schedule spec %q: event %q is not t:budget", spec, part)
		}
		t, err := strconv.ParseFloat(strings.TrimSpace(at), 64)
		if err != nil {
			return nil, fmt.Errorf("farm: schedule spec %q: event time %q: %w", spec, at, err)
		}
		b, err := units.ParsePower(budget)
		if err != nil {
			return nil, fmt.Errorf("farm: schedule spec %q: event budget %q: %w", spec, budget, err)
		}
		events = append(events, power.BudgetEvent{At: t, Budget: b, Label: part})
	}
	sched, err := power.NewBudgetSchedule(initial, events...)
	if err != nil {
		return nil, fmt.Errorf("farm: schedule spec %q: %w", spec, err)
	}
	return FromSchedule(sched)
}
