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
// predictor noise studied in Table 2. Used for validation runs: a p630
// quantum with one memory-bound job and three hot-idle CPUs costs about
// 200 times the analytic one (54.5 µs against 0.28 µs on a 2-core Xeon,
// go 1.24; docs/performance.md, section "paper-suite").

// mcBlock is the instruction block sharing one draw.
const mcBlock = 4096

// expMemo is a one-entry memo of e^−λ, Knuth's stopping limit: limit is
// math.Exp(-lambda) for the λ it last computed. A CPU's blocks repeat the
// same λ until its phase or its block length changes.
type expMemo struct{ lambda, limit float64 }

// poisson draws Poisson(λ) — Knuth's product method for small λ, normal
// approximation beyond (λ > 64 keeps the approximation error far below
// the rates' natural variance). memo serves Knuth's limit; only that
// path reads or writes it.
func poisson(rng *rand.Rand, lambda float64, memo *expMemo) uint64 {
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
	if lambda != memo.lambda {
		memo.lambda, memo.limit = lambda, math.Exp(-lambda)
	}
	limit := memo.limit
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
// per block, with CPU i's exp(−λ) memos for the L2, L3 and memory draws.
// Cycle overshoot past the quantum boundary (at most one block's worth) is
// carried as stolen-time debt into the next quantum so long-run time
// accounting stays exact.
func (m *Machine) runJobMC(i int, c *cpu, job *workload.Cursor, f units.Frequency, latScale, avail float64, stats *QuantumStats) (used float64, postL1 float64) {
	budgetCycles := avail * f.Hz()
	var consumed float64
	rng := m.random()
	memo := m.expMemos(i)
	for consumed < budgetCycles && !job.Done() {
		phase := job.Current()
		coreCPI, _ := job.PhaseCost()
		rates := &phase.Rates
		if rates.L2PerInstr == 0 && rates.L3PerInstr == 0 && rates.MemPerInstr == 0 {
			if full := job.RemainingInPhase() / mcBlock; full > 0 {
				// A phase that never references past L1 draws nothing:
				// each full block costs coreCPI·mcBlock cycles (the drawn
				// memory time is latScale·0), so run them as one batch,
				// adding the same cycles in the same order.
				cyc := coreCPI * mcBlock
				var k uint64
				for k < full && consumed < budgetCycles {
					consumed += cyc
					k++
				}
				n, cycles := k*mcBlock, k*uint64(cyc)
				job.AdvanceWithinPhase(n)
				c.totals.Instructions += n
				c.totals.Cycles += cycles
				stats.Instructions += n
				stats.Cycles += cycles
				continue
			}
		}
		n, _ := job.AdvanceWithinPhase(mcBlock)
		if n == 0 {
			break
		}
		nf := float64(n)
		core := coreCPI * nf
		l2 := poisson(rng, nf*rates.L2PerInstr, &memo[0])
		l3 := poisson(rng, nf*rates.L3PerInstr, &memo[1])
		mem := poisson(rng, nf*rates.MemPerInstr, &memo[2])
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

// expMemos returns CPU i's exp(−λ) memos, building every CPU's on the
// first Monte-Carlo block: an analytic machine never holds them.
func (m *Machine) expMemos(i int) *[3]expMemo {
	if m.mcExp == nil {
		m.mcExp = make([][3]expMemo, len(m.cpus))
	}
	return &m.mcExp[i]
}
