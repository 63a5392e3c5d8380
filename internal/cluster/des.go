// Discrete-event advancement for the cluster coordinator. Run is
// byte-identical to calling Step every quantum — same decisions,
// counters, energy, trace — but instead of paying full coordinator
// overhead every 10 ms quantum it classifies each upcoming quantum as
// interesting (a schedule edge, a budget edge, a pending actuation) or
// quiet, and fast-forwards machines through quiet spans on their
// probe-and-replay path while samplers keep collecting per-quantum
// windows. des_test.go keeps the stepped loop as the reference.
package cluster

import (
	"math"

	"repro/internal/farm"
	"repro/internal/units"
)

// budgetWant returns the budget the next Step would see in force.
func (c *Coordinator) budgetWant() units.Power {
	if c.source != nil {
		return c.source.BudgetAt(c.loop.Now())
	}
	return c.budget
}

// quietSpan returns how many upcoming quanta need no coordinator work —
// no trace emission, no quantum hook, no budget change, no actuation
// landing, no schedule pass — and may therefore be skipped. 0 means the
// next quantum must be a real Step.
func (c *Coordinator) quietSpan(until float64) int {
	if c.sink != nil {
		// Tracing observes every quantum; nothing is quiet.
		return 0
	}
	if c.beforeQuantum != nil || c.afterQuantum != nil {
		// Hooks see every quantum.
		return 0
	}
	if c.budgetWant() != c.budget {
		return 0
	}
	now := c.loop.Now()
	q := c.loop.Quantum()
	// Never skip across the schedule timer's due edge.
	n := c.loop.TicksUntilDue() - 1
	// bound clips the span so every skipped quantum *starts* before t.
	bound := func(t float64) {
		if math.IsInf(t, 1) {
			return
		}
		if k := int((t - now) / q); k < n {
			n = k
		}
	}
	bound(until)
	// Budget edges: a source that cannot announce them disables skipping.
	if c.source != nil {
		es, ok := c.source.(farm.EdgeSource)
		if !ok {
			return 0
		}
		t := es.NextChangeAt(now)
		if t <= now {
			return 0
		}
		bound(t)
	}
	for _, p := range c.pending {
		bound(p.due)
	}
	if n < 0 {
		return 0
	}
	return n
}

// skipSpan advances every machine n quanta (samplers still collect every
// quantum) and moves the loop clock without running coordinator work.
func (c *Coordinator) skipSpan(n int) error {
	for _, nd := range c.nodes {
		if c.homogeneous {
			if err := nd.M.FastForwardQuanta(n, nd.sampler.Collect); err != nil {
				return err
			}
			continue
		}
		// Heterogeneous machines advance to each cadence edge in turn,
		// accumulating the target exactly as the stepped loop clock would.
		t := c.loop.Now()
		q := c.loop.Quantum()
		for j := 0; j < n; j++ {
			t += q
			if err := nd.M.AdvanceTo(t); err != nil {
				return err
			}
			if err := nd.sampler.Collect(); err != nil {
				return err
			}
		}
	}
	return c.loop.SkipTicks(n)
}

// Run advances the cluster until simulation time t: real Steps at every
// interesting quantum, bulk fast-forwards through quiet spans. With a
// sink or a quantum hook installed every quantum is interesting.
func (c *Coordinator) Run(until float64) error {
	for c.loop.Now() < until {
		if n := c.quietSpan(until); n > 0 {
			if err := c.skipSpan(n); err != nil {
				return err
			}
			continue
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}
