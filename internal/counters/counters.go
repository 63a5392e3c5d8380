// Package counters models the per-processor performance counters the
// scheduler reads. The Power4+ exposes counts of instructions, cycles and
// accesses to each level of the memory hierarchy (§4.3); fvsst samples them
// every dispatch period t and works exclusively from deltas over the
// sampling window. The counters are aggregate per processor — they cannot
// distinguish the programs multiprogrammed onto it, which the paper calls
// out as a deliberate accuracy/simplicity trade-off.
package counters

import (
	"fmt"
	"math"
)

// Sample is one monotonic reading of a processor's counters at a moment of
// simulation time.
type Sample struct {
	// Time is the simulation time of the reading in seconds.
	Time float64
	// Instructions completed since the counters were reset.
	Instructions uint64
	// Cycles elapsed (non-halted) since reset.
	Cycles uint64
	// HaltedCycles elapsed while the processor was halted, when the
	// hardware supports a halted-cycle counter (§5: such processors need
	// no explicit idle indicator).
	HaltedCycles uint64
	// L2Refs, L3Refs, MemRefs count references *serviced by* L2, L3 and
	// memory respectively since reset.
	L2Refs  uint64
	L3Refs  uint64
	MemRefs uint64
}

// Delta is the difference between two samples of the same processor — the
// unit of data the predictor consumes.
type Delta struct {
	// Window is the wall-clock span of the delta in seconds.
	Window       float64
	Instructions uint64
	Cycles       uint64
	HaltedCycles uint64
	L2Refs       uint64
	L3Refs       uint64
	MemRefs      uint64
}

// Sub computes cur - prev. It errors if the samples are out of order or any
// counter ran backwards, which would indicate a reset in between.
func (cur Sample) Sub(prev Sample) (Delta, error) {
	if cur.Time < prev.Time {
		return Delta{}, fmt.Errorf("counters: samples out of order (%v < %v)", cur.Time, prev.Time)
	}
	pairs := []struct {
		name     string
		old, new uint64
	}{
		{"instructions", prev.Instructions, cur.Instructions},
		{"cycles", prev.Cycles, cur.Cycles},
		{"halted", prev.HaltedCycles, cur.HaltedCycles},
		{"l2", prev.L2Refs, cur.L2Refs},
		{"l3", prev.L3Refs, cur.L3Refs},
		{"mem", prev.MemRefs, cur.MemRefs},
	}
	for _, p := range pairs {
		if p.new < p.old {
			return Delta{}, fmt.Errorf("counters: %s counter ran backwards (%d < %d)", p.name, p.new, p.old)
		}
	}
	return Delta{
		Window:       cur.Time - prev.Time,
		Instructions: cur.Instructions - prev.Instructions,
		Cycles:       cur.Cycles - prev.Cycles,
		HaltedCycles: cur.HaltedCycles - prev.HaltedCycles,
		L2Refs:       cur.L2Refs - prev.L2Refs,
		L3Refs:       cur.L3Refs - prev.L3Refs,
		MemRefs:      cur.MemRefs - prev.MemRefs,
	}, nil
}

// Add merges another delta into d (aggregation across sampling windows, as
// the scheduler does over the n dispatch periods of one scheduling period).
func (d Delta) Add(other Delta) Delta {
	return Delta{
		Window:       d.Window + other.Window,
		Instructions: d.Instructions + other.Instructions,
		Cycles:       d.Cycles + other.Cycles,
		HaltedCycles: d.HaltedCycles + other.HaltedCycles,
		L2Refs:       d.L2Refs + other.L2Refs,
		L3Refs:       d.L3Refs + other.L3Refs,
		MemRefs:      d.MemRefs + other.MemRefs,
	}
}

// IPC returns observed instructions per (non-halted) cycle, or 0 when no
// cycles elapsed.
func (d Delta) IPC() float64 {
	if d.Cycles == 0 {
		return 0
	}
	return float64(d.Instructions) / float64(d.Cycles)
}

// RatePerInstr returns the given reference count per instruction, or 0 when
// no instructions retired.
func (d Delta) RatePerInstr(refs uint64) float64 {
	if d.Instructions == 0 {
		return 0
	}
	return float64(refs) / float64(d.Instructions)
}

// L2PerInstr returns L2 references per instruction.
func (d Delta) L2PerInstr() float64 { return d.RatePerInstr(d.L2Refs) }

// L3PerInstr returns L3 references per instruction.
func (d Delta) L3PerInstr() float64 { return d.RatePerInstr(d.L3Refs) }

// MemPerInstr returns memory references per instruction.
func (d Delta) MemPerInstr() float64 { return d.RatePerInstr(d.MemRefs) }

// ObservedFrequencyHz returns the average clock implied by the delta:
// cycles per second of window. 0 when the window is empty.
func (d Delta) ObservedFrequencyHz() float64 {
	if d.Window == 0 {
		return 0
	}
	return float64(d.Cycles) / d.Window
}

// Validate sanity-checks a delta: non-negative window and an IPC that is
// physically plausible (no machine retires more than ~8 instructions per
// cycle).
func (d Delta) Validate() error {
	if d.Window < 0 {
		return fmt.Errorf("counters: negative window %v", d.Window)
	}
	if ipc := d.IPC(); ipc > 8 || math.IsNaN(ipc) {
		return fmt.Errorf("counters: implausible IPC %v", ipc)
	}
	return nil
}

// Reader is the hardware-facing interface the sampler uses: anything that
// can produce a counter Sample for a processor. The simulated machine
// implements it; on real hardware it would wrap the kernel's perf-counter
// interface.
type Reader interface {
	// ReadCounters returns the current counter sample of processor cpu.
	ReadCounters(cpu int) (Sample, error)
	// NumCPUs returns how many processors the reader exposes.
	NumCPUs() int
}
