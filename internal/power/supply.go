package power

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/units"
)

// Supply is one power supply unit. The motivating example (§2) has two
// 480 W supplies feeding a 746 W system: either alone cannot carry the full
// load, so losing one starts a cascade-failure clock.
type Supply struct {
	Name     string
	Capacity units.Power
	failed   bool
}

// Plant models the machine-room power feed: a set of supplies, the load
// placed on them, and the cascade-failure rule. When the load exceeds the
// combined capacity of the surviving supplies continuously for longer than
// DeltaT, the overloaded survivors fail too (§2: "by time T0+ΔT, the system
// must be under the new power limit or the second power supply will fail").
type Plant struct {
	supplies []*Supply
	// DeltaT is the overload tolerance of a supply in seconds, a
	// characteristic of the supply hardware.
	DeltaT float64

	overloadSince float64 // simulation time overload began; <0 when not overloaded
	cascaded      bool
	now           float64
}

// NewPlant builds a plant from supply capacities. DeltaT is the overload
// tolerance in seconds.
func NewPlant(deltaT float64, capacities ...units.Power) (*Plant, error) {
	if deltaT <= 0 {
		return nil, fmt.Errorf("power: plant ΔT %v must be positive", deltaT)
	}
	if len(capacities) == 0 {
		return nil, fmt.Errorf("power: plant needs at least one supply")
	}
	p := &Plant{DeltaT: deltaT, overloadSince: -1}
	for i, c := range capacities {
		if c <= 0 {
			return nil, fmt.Errorf("power: supply %d capacity %v must be positive", i, c)
		}
		p.supplies = append(p.supplies, &Supply{Name: fmt.Sprintf("PS%d", i), Capacity: c})
	}
	return p, nil
}

// MotivatingPlant returns the §2 example plant: two 480 W supplies with the
// given cascade tolerance.
func MotivatingPlant(deltaT float64) *Plant {
	p, err := NewPlant(deltaT, units.Watts(480), units.Watts(480))
	if err != nil {
		panic(err)
	}
	return p
}

// Capacity returns the combined capacity of the surviving supplies.
func (p *Plant) Capacity() units.Power {
	var total units.Power
	for _, s := range p.supplies {
		if !s.failed {
			total += s.Capacity
		}
	}
	return total
}

// FailSupply marks the named supply failed. It is the §2 time-T0 event.
func (p *Plant) FailSupply(name string) error {
	for _, s := range p.supplies {
		if s.Name == name {
			if s.failed {
				return fmt.Errorf("power: supply %s already failed", name)
			}
			s.failed = true
			return nil
		}
	}
	return fmt.Errorf("power: no supply named %s", name)
}

// Observe advances the plant to simulation time now with the machine drawing
// load, and returns whether the plant has cascade-failed. Overload that
// persists continuously for more than DeltaT trips the cascade.
func (p *Plant) Observe(now float64, load units.Power) bool {
	if now < p.now {
		panic(fmt.Sprintf("power: plant time went backwards: %v < %v", now, p.now))
	}
	p.now = now
	if p.cascaded {
		return true
	}
	if load > p.Capacity() {
		if p.overloadSince < 0 {
			p.overloadSince = now
		} else if now-p.overloadSince >= p.DeltaT {
			p.cascaded = true
			for _, s := range p.supplies {
				s.failed = true
			}
		}
	} else {
		p.overloadSince = -1
	}
	return p.cascaded
}

// BudgetEvent is a scheduled change to the global power budget — the
// paper's first trigger for rescheduling ("the global power limit may
// change, due, for example, to the loss or the restoration of a power
// supply").
type BudgetEvent struct {
	At     float64 // simulation time in seconds
	Budget units.Power
	Label  string
}

// BudgetSource yields the global power budget in force at a simulation
// time. Implementations must be deterministic functions of time and of
// explicitly accumulated state (the farm UPS), never of wall clocks or
// global RNGs, per the engine seeding convention.
type BudgetSource interface {
	BudgetAt(now float64) units.Power
}

// BudgetSchedule is a time-ordered list of budget events with a lookup for
// the budget in force at any time; it is itself a BudgetSource.
type BudgetSchedule struct {
	initial units.Power
	events  []BudgetEvent
}

// NewBudgetSchedule starts with an initial budget and applies the given
// events in time order; events at the same time apply in list order, so
// the later-listed one wins.
func NewBudgetSchedule(initial units.Power, events ...BudgetEvent) (*BudgetSchedule, error) {
	if !(initial > 0) || math.IsInf(float64(initial), 1) {
		return nil, fmt.Errorf("power: initial budget %v must be positive and finite", initial)
	}
	evs := make([]BudgetEvent, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for i, e := range evs {
		if !(e.At >= 0) || math.IsInf(e.At, 1) {
			return nil, fmt.Errorf("power: budget event %d at time %v, want finite and non-negative", i, e.At)
		}
		if !(e.Budget > 0) || math.IsInf(float64(e.Budget), 1) {
			return nil, fmt.Errorf("power: budget event %q has budget %v, want positive and finite", e.Label, e.Budget)
		}
	}
	return &BudgetSchedule{initial: initial, events: evs}, nil
}

// BudgetAt returns the budget in force at simulation time t.
func (b *BudgetSchedule) BudgetAt(t float64) units.Power {
	budget := b.initial
	for _, e := range b.events {
		if e.At <= t {
			budget = e.Budget
		} else {
			break
		}
	}
	return budget
}

// ParseScheduleSpec parses a compact budget-schedule spec of the form
//
//	"900"  or  "900,1:600,3:750W"
//
// — an initial budget followed by comma-separated t:budget events — into a
// BudgetSchedule. Budgets accept units.ParsePower syntax ("600", "600W",
// "0.6kW"); times are simulated seconds. It is the plumbing behind the
// fvsst-cluster -budget-schedule flag.
func ParseScheduleSpec(spec string) (*BudgetSchedule, error) {
	parts := strings.Split(spec, ",")
	initial, err := units.ParsePower(parts[0])
	if err != nil {
		return nil, fmt.Errorf("power: schedule spec %q: %w", spec, err)
	}
	var events []BudgetEvent
	for _, part := range parts[1:] {
		at, budget, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("power: schedule spec %q: event %q is not t:budget", spec, part)
		}
		t, err := strconv.ParseFloat(strings.TrimSpace(at), 64)
		if err != nil {
			return nil, fmt.Errorf("power: schedule spec %q: event time %q: %w", spec, at, err)
		}
		b, err := units.ParsePower(budget)
		if err != nil {
			return nil, fmt.Errorf("power: schedule spec %q: event budget %q: %w", spec, budget, err)
		}
		events = append(events, BudgetEvent{At: t, Budget: b, Label: part})
	}
	sched, err := NewBudgetSchedule(initial, events...)
	if err != nil {
		return nil, fmt.Errorf("power: schedule spec %q: %w", spec, err)
	}
	return sched, nil
}
