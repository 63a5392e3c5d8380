package farm

import (
	"fmt"

	"repro/internal/units"
)

// StepKey identifies the Step-2 demotion that produced a demand point,
// in the exact order the flat greedy compares candidates: the demoted
// processor's absolute predicted loss at its new (one lower) index, its
// pre-demotion table index, and its position within the exporting
// processor set. The zero key marks a curve's first point (the Step-1
// desire — no demotion produced it).
type StepKey struct {
	Loss float64
	Idx  int
	Proc int
}

// Less orders step keys the way fvsst.FitToBudgetGrid picks its next
// demotion: smaller loss first, ties toward the higher pre-demotion
// index, remaining ties toward the earlier processor. aOff/bOff shift
// each key's Proc into a shared flat order, so keys exported by
// different members compare as if their processors were concatenated.
func (a StepKey) Less(aOff int, b StepKey, bOff int) bool {
	if a.Loss != b.Loss {
		return a.Loss < b.Loss
	}
	if a.Idx != b.Idx {
		return a.Idx > b.Idx
	}
	return a.Proc+aOff < b.Proc+bOff
}

// DemandPoint couples one aggregate power level a cluster could run at
// with the aggregate predicted performance loss of the least-loss
// assignment at that level. Step records which demotion produced the
// point, so an upper tier can interleave several members' curves in the
// exact order one flat pass over the union would have demoted.
type DemandPoint struct {
	Power units.Power
	Loss  float64
	Step  StepKey
}

// DemandCurve is a cluster's budget→loss trade-off, exported upward for
// the farm allocator: Points[0] is the cluster's ε-constrained desire
// (Step 1), each further point applies one more least-loss Step-2
// demotion, and the last point is the floor with every processor at the
// table minimum. Power is strictly decreasing and Loss non-decreasing
// along the curve; levels are quantised to power.Table steps because each
// point differs from its predecessor by exactly one processor demotion.
// Clusters derive it from the perfmodel.PredGrid rows a scheduling pass
// already fills, at zero extra prediction cost.
type DemandCurve struct {
	Points []DemandPoint
}

// Desired returns the power of the ε-constrained desire (the first point).
func (c DemandCurve) Desired() units.Power { return c.Points[0].Power }

// Floor returns the power of the all-minimum assignment (the last point).
func (c DemandCurve) Floor() units.Power { return c.Points[len(c.Points)-1].Power }

// Validate checks the curve's shape: non-empty, positive powers, strictly
// decreasing power and non-decreasing loss from desire to floor.
func (c DemandCurve) Validate() error {
	if len(c.Points) == 0 {
		return fmt.Errorf("farm: empty demand curve")
	}
	for i, p := range c.Points {
		if p.Power <= 0 {
			return fmt.Errorf("farm: demand point %d has non-positive power %v", i, p.Power)
		}
		if p.Loss < 0 {
			return fmt.Errorf("farm: demand point %d has negative loss %v", i, p.Loss)
		}
		if i > 0 {
			prev := c.Points[i-1]
			if p.Power >= prev.Power {
				return fmt.Errorf("farm: demand curve power not strictly decreasing at point %d (%v → %v)", i, prev.Power, p.Power)
			}
			if p.Loss < prev.Loss {
				return fmt.Errorf("farm: demand curve loss decreasing at point %d (%v → %v)", i, prev.Loss, p.Loss)
			}
		}
	}
	return nil
}
