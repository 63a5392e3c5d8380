// Package workload models the programs the simulated machine executes: the
// paper's synthetic benchmark with its adjustable CPU/memory intensity and
// two-phase structure (§7.3), profile models of the four real applications
// studied (gzip, gap, mcf, health), the Power4+ "hot" idle loop, and
// multiprogrammed mixes.
//
// A workload is a sequence of phases. Each phase is characterised exactly
// the way the paper's performance model sees work: a perfect-machine IPC α,
// per-instruction access rates to L2/L3/memory, and a length in
// instructions. Phases additionally carry ground-truth imperfections the
// predictor cannot observe (non-memory stalls), which generate the
// predictor error the paper measures in Table 2.
package workload

import (
	"fmt"

	"repro/internal/memhier"
)

// Phase is a stretch of execution with stable characteristics.
type Phase struct {
	// Name labels the phase in logs ("init", "cpu", "mem", …).
	Name string
	// Alpha is the IPC of a perfect machine with infinite L1 and no
	// stalls — the α of the paper's IPC equation. It captures both the
	// workload's ILP and the processor's width.
	Alpha float64
	// Rates are the per-instruction reference rates serviced by L2, L3
	// and memory.
	Rates memhier.AccessRates
	// Instructions is the phase length.
	Instructions uint64
	// NonMemStallCyclesPerInstr adds frequency-scaled stall cycles per
	// instruction (branch mispredictions, dependency chains) that the
	// performance counters do NOT expose. The paper notes "the predictor
	// currently does not account for non-memory stalls" as an error
	// source; this field is that error source.
	NonMemStallCyclesPerInstr float64
}

// Validate checks the phase parameters are physical.
func (p Phase) Validate() error {
	if p.Alpha <= 0 || p.Alpha > 8 {
		return fmt.Errorf("workload: phase %q alpha %v out of (0,8]", p.Name, p.Alpha)
	}
	if err := p.Rates.Validate(); err != nil {
		return fmt.Errorf("workload: phase %q: %w", p.Name, err)
	}
	if p.Instructions == 0 {
		return fmt.Errorf("workload: phase %q has zero instructions", p.Name)
	}
	if p.NonMemStallCyclesPerInstr < 0 || p.NonMemStallCyclesPerInstr > 100 {
		return fmt.Errorf("workload: phase %q non-mem stall %v out of [0,100]", p.Name, p.NonMemStallCyclesPerInstr)
	}
	return nil
}

// StallTimePerInstr returns the phase's frequency-invariant memory time per
// instruction under hierarchy h, in seconds.
func (p Phase) StallTimePerInstr(h memhier.Hierarchy) float64 {
	return p.Rates.StallTimePerInstr(h)
}

// TrueCyclesPerInstr returns the ground-truth cycles one instruction costs
// at frequency fHz: the frequency-dependent core component (1/α plus
// non-memory stalls) plus the memory component converted to cycles. The
// latencyScale argument lets the machine inflate memory latency for shared-
// cache contention and jitter; the predictor always assumes 1.
func (p Phase) TrueCyclesPerInstr(h memhier.Hierarchy, fHz float64, latencyScale float64) float64 {
	core := 1/p.Alpha + p.NonMemStallCyclesPerInstr
	mem := p.StallTimePerInstr(h) * latencyScale * fHz
	return core + mem
}
