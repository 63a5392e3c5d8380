package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/farm"
	"repro/internal/invariant"
	"repro/internal/power"
	"repro/internal/units"
)

// FarmMember is one cluster in a farm scenario.
type FarmMember struct {
	Name   string  `json:"name"`
	FloorW float64 `json:"floor_w"`
}

// FarmEvent rewrites the grid budget at a time (grid mode only).
type FarmEvent struct {
	AtSec float64 `json:"at_sec"`
	Watts float64 `json:"watts"`
}

// FarmSpec is one farm-layer scenario: members, a partition window, and
// a budget trajectory that respects the allocator's documented contract
// (discrete drops only while every member is reachable; a continuously
// shrinking source only through the UPS runway governor with
// Safety ≥ TTL/runway). Violating those preconditions makes conservation
// physically unsatisfiable, so the generator never does — the checkers
// verify the allocator holds the contract it promises, not one it
// doesn't.
type FarmSpec struct {
	Seed        int64        `json:"seed"`
	Members     []FarmMember `json:"members"`
	Partitioned []bool       `json:"partitioned,omitempty"`
	PStartSec   float64      `json:"p_start_sec"`
	PEndSec     float64      `json:"p_end_sec"`
	UseUPS      bool         `json:"use_ups"`
	GridW       float64      `json:"grid_w"`
	Events      []FarmEvent  `json:"events,omitempty"`
	CapacityJ   float64      `json:"capacity_j,omitempty"`
	RunwaySec   float64      `json:"runway_sec,omitempty"`
	FailAtSec   float64      `json:"fail_at_sec,omitempty"`
	Steps       int          `json:"steps"`
}

// Farm scenario cadence, matching the farm package's own property tests.
const (
	farmDT      = 0.05
	farmTTL     = 0.3
	farmSafety  = 0.15
	farmPeriods = 2
	farmRunway  = 3.0
)

// GenerateFarm draws a random farm scenario from the seed.
func GenerateFarm(seed int64) FarmSpec {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(4)
	s := FarmSpec{
		Seed:        seed,
		Partitioned: make([]bool, n),
		PStartSec:   1.2,
		PEndSec:     2.0,
		UseUPS:      rng.Intn(2) == 1,
		FailAtSec:   0.4,
		RunwaySec:   farmRunway,
		Steps:       60 + rng.Intn(41),
	}
	var floors float64
	for i := 0; i < n; i++ {
		f := round1(5 + rng.Float64()*10)
		s.Members = append(s.Members, FarmMember{Name: fmt.Sprintf("c%d", i), FloorW: f})
		floors += f
	}
	for i := range s.Partitioned {
		s.Partitioned[i] = rng.Float64() < 0.4
	}
	s.Partitioned[rng.Intn(n)] = false // keep one member reachable

	// Budgets stay above Σfloors/(1−Safety): below that the floors
	// themselves overrun and Met=false is the (legal) report.
	minBudget := floors / (1 - farmSafety) * 1.05
	horizon := float64(s.Steps) * farmDT
	if s.UseUPS {
		s.GridW = round1(minBudget * (3 + rng.Float64()*3))
		// Sized so the governor's decay over the whole post-fail horizon
		// still ends above minBudget.
		s.CapacityJ = round1(minBudget * 5 * farmRunway)
		return s
	}
	s.GridW = round1(minBudget * (1.2 + rng.Float64()*4.8))
	for i, k := 0, rng.Intn(4); i < k; i++ {
		at := rng.Float64() * horizon
		if at >= s.PStartSec-farmDT && at < s.PEndSec {
			at = s.PEndSec + rng.Float64()*max(0, horizon-s.PEndSec)
		}
		s.Events = append(s.Events, FarmEvent{
			AtSec: at,
			Watts: round1(minBudget * (1.2 + rng.Float64()*4.8)),
		})
	}
	return s
}

func (s FarmSpec) reachable(i int, now float64) bool {
	return !(s.Partitioned[i] && now >= s.PStartSec && now < s.PEndSec)
}

func (s FarmSpec) allReachable(now float64) bool {
	for i := range s.Members {
		if !s.reachable(i, now) {
			return false
		}
	}
	return true
}

// randomFarmCurve draws a demand curve whose floor is exactly the member
// floor: strictly decreasing power, non-decreasing loss. It draws from the
// floor up and fills the points from the back, in one exact-size slice.
func randomFarmCurve(rng *rand.Rand, floor units.Power) farm.DemandCurve {
	steps := 2 + rng.Intn(8)
	pts := make([]farm.DemandPoint, steps)
	pt := farm.DemandPoint{Power: floor, Loss: 0.2 + rng.Float64()*0.7}
	pts[steps-1] = pt
	for i := steps - 2; i >= 0; i-- {
		pt.Power += units.Watts(1 + rng.Float64()*30)
		pt.Loss = pt.Loss * rng.Float64() * 0.9
		pts[i] = pt
	}
	return farm.DemandCurve{Points: pts}
}

// RunFarm drives one farm scenario under the invariant checks: every
// reallocation pass through CheckAllocation, and at every quantum the
// continuous conservation check (Σ charged ≤ source budget, through the
// partition window and UPS decay) plus every holder's lease-floor
// safety. Hash is taken over a fingerprint of every pass, which the
// soak's farm job compares with a replay's for determinism.
func RunFarm(spec FarmSpec) (*RunResult, error) {
	if len(spec.Members) == 0 || spec.Steps <= 0 {
		return nil, fmt.Errorf("scenario: empty farm spec")
	}
	rng := rand.New(rand.NewSource(spec.Seed*31 + 7)) // demand-curve draws

	var src power.BudgetSource
	var ups *farm.UPS
	if spec.UseUPS {
		var err error
		ups, err = farm.NewUPS(units.Joules(spec.CapacityJ), spec.RunwaySec)
		if err != nil {
			return nil, err
		}
		src = farm.Failover{At: spec.FailAtSec, Before: farm.Static(units.Watts(spec.GridW)), After: ups}
	} else {
		var events []power.BudgetEvent
		for _, e := range spec.Events {
			events = append(events, power.BudgetEvent{At: e.AtSec, Budget: units.Watts(e.Watts)})
		}
		sched, err := power.NewBudgetSchedule(units.Watts(spec.GridW), events...)
		if err != nil {
			return nil, err
		}
		src = sched
	}

	members := make([]farm.Member, len(spec.Members))
	for i, m := range spec.Members {
		members[i] = farm.Member{Name: m.Name, Floor: units.Watts(m.FloorW)}
	}
	alloc, err := farm.NewAllocator(farm.AllocatorConfig{
		Source:   src,
		Members:  members,
		Periods:  farmPeriods,
		LeaseTTL: farmTTL,
		Safety:   farmSafety,
	})
	if err != nil {
		return nil, err
	}

	suite := invariant.NewSuite()
	var fp []byte
	for step := 0; step <= spec.Steps; step++ {
		now := float64(step) * farmDT
		// The farm drew the charged power over the quantum that just ended.
		if prev := now - farmDT; ups != nil && prev >= spec.FailAtSec {
			if err := ups.Drain(alloc.Charged(prev), farmDT); err != nil {
				return nil, err
			}
		}
		a, ran, err := alloc.Round(now, func(i int) (farm.DemandCurve, bool, error) {
			if !spec.reachable(i, now) {
				return farm.DemandCurve{}, false, nil
			}
			return randomFarmCurve(rng, members[i].Floor), true, nil
		})
		if err != nil {
			return nil, err
		}
		if ran {
			suite.Report(invariant.CheckAllocation(members, a)...)
			if spec.allReachable(now) && !a.Met {
				suite.Report(invariant.Violation{Checker: "farm-allocation", At: now,
					Detail: fmt.Sprintf("met=false with every member reachable and budget %v above the floor minimum", a.Budget)})
			}
			fp = appendFarmLine(fp, now, a)
		}
		suite.Report(invariant.CheckFarmCharge(now, src.BudgetAt(now), alloc.Charged(now))...)
		for i := range members {
			suite.Report(invariant.CheckHolder(now, alloc.Holder(i))...)
		}
	}

	res := &RunResult{Rounds: spec.Steps, fingerprint: fp}
	sum := sha256.Sum256(fp)
	res.Hash = hex.EncodeToString(sum[:8])
	res.Violations = suite.Violations()
	return res, nil
}

// appendFarmLine appends one reallocation pass as a trace line: the time
// to 2 decimals, the trigger, the charged watts and each lease's watts to
// 6 ("%.2f %s %.6f", then " %s=%.6f" per lease).
func appendFarmLine(b []byte, now float64, a farm.Allocation) []byte {
	b = strconv.AppendFloat(b, now, 'f', 2, 64)
	b = append(append(append(b, ' '), a.Trigger...), ' ')
	b = strconv.AppendFloat(b, a.Charged.W(), 'f', 6, 64)
	for _, l := range a.Leases {
		b = append(append(append(b, ' '), l.Member...), '=')
		b = strconv.AppendFloat(b, l.Budget.W(), 'f', 6, 64)
	}
	return append(b, '\n')
}
