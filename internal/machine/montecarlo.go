package machine

import (
	"math"
	"math/rand"

	"repro/internal/units"
	"repro/internal/workload"
)

// Monte-Carlo execution mode: instead of charging each instruction the
// closed-form expected CPI, the machine draws per-block reference counts
// from the phase's rates (Poisson approximation of the per-instruction
// Bernoulli draws — exact to within O(p) for the sub-percent rates real
// workloads have) and sums individual service times. Execution-time
// variance then emerges from the discreteness of misses rather than from
// the injected latency jitter, giving a second, independent source of the
// predictor noise studied in Table 2. Roughly two orders of magnitude
// slower than the analytic mode; used for validation runs.

// mcBlock is the instruction block sharing one draw.
const mcBlock = 4096

// poisson draws Poisson(λ) — Knuth's product method for small λ, normal
// approximation beyond (λ > 64 keeps the approximation error far below
// the rates' natural variance).
func poisson(rng *rand.Rand, lambda float64) uint64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return uint64(v + 0.5)
	}
	limit := math.Exp(-lambda)
	p := 1.0
	var k uint64
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// runJobMC is the Monte-Carlo counterpart of runJob: it executes cursor
// work for at most avail seconds at frequency f, drawing reference counts
// per block. Cycle overshoot past the quantum boundary (at most one
// block's worth) is carried as stolen-time debt into the next quantum so
// long-run time accounting stays exact.
func (m *Machine) runJobMC(c *cpu, job *workload.Cursor, f units.Frequency, latScale, avail float64, stats *QuantumStats) (used float64, postL1 float64) {
	budgetCycles := avail * f.Hz()
	var consumed float64
	rng := m.random()
	for consumed < budgetCycles && !job.Done() {
		phase := job.Current()
		coreCPI, _ := job.PhaseCost()
		n, _ := job.AdvanceWithinPhase(mcBlock)
		if n == 0 {
			break
		}
		nf := float64(n)
		core := coreCPI * nf
		l2 := poisson(rng, nf*phase.Rates.L2PerInstr)
		l3 := poisson(rng, nf*phase.Rates.L3PerInstr)
		mem := poisson(rng, nf*phase.Rates.MemPerInstr)
		memSeconds := latScale * (float64(l2)*p630L2 + float64(l3)*p630L3 + float64(mem)*p630Mem)
		cyc := core + memSeconds*f.Hz()
		consumed += cyc

		c.totals.Instructions += n
		c.totals.Cycles += uint64(cyc)
		c.totals.L2Refs += l2
		c.totals.L3Refs += l3
		c.totals.MemRefs += mem
		stats.Instructions += n
		stats.Cycles += uint64(cyc)
		postL1 += float64(l2 + l3 + mem)
	}
	if consumed > budgetCycles {
		// Carry the overshoot into the next quantum as debt.
		c.stolenDebt += (consumed - budgetCycles) / f.Hz()
		consumed = budgetCycles
	}
	return consumed / f.Hz(), postL1
}
