// Package memhier describes the memory hierarchy of the simulated machine
// and provides the analytic cache-miss model the workload generators use.
//
// The paper's predictor decomposes cycles into a frequency-dependent core
// component and a frequency-independent memory component; what makes that
// work is that the service time of an L2/L3/DRAM reference is fixed in
// *seconds* while core work is fixed in *cycles*. This package owns those
// service times. The defaults reproduce the measured latencies of the IBM
// pSeries p630 used in the paper: 4–5 cycles to L1, 15 to L2, 113 to L3 and
// 393 to memory, all at the nominal 1 GHz clock.
package memhier

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Level identifies one level of the memory hierarchy.
type Level int

// Memory hierarchy levels from fastest to slowest. L1 covers both the
// instruction and data caches; the predictor folds L1 hits into the
// frequency-dependent component (they scale with the clock), so only L2 and
// beyond appear in the frequency-independent term.
const (
	L1 Level = iota
	L2
	L3
	DRAM
	numLevels
)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case DRAM:
		return "mem"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Hierarchy is an immutable description of a machine's memory system.
type Hierarchy struct {
	// RefClock is the clock frequency at which LatencyCycles was measured.
	RefClock units.Frequency
	// LatencyCycles holds the load-to-use latency of each level in core
	// cycles at RefClock.
	LatencyCycles [numLevels]float64
	// CapacityBytes holds the capacity of each cache level (DRAM entry is
	// main-memory size).
	CapacityBytes [numLevels]int64
	// L2SharedBy is how many cores share one L2 (2 on the p630's Power4+
	// dual-core modules). 1 means private.
	L2SharedBy int
}

// P630 returns the hierarchy of the paper's experimental platform, a 4-way
// 1 GHz Power4+ pSeries p630 (§7.1): 32 KB L1I + 64 KB L1D per core, a
// 1.44 MB L2 shared by each core pair, 32 MB L3, 4 GB memory.
func P630() Hierarchy {
	return Hierarchy{
		RefClock:      units.GHz(1),
		LatencyCycles: [numLevels]float64{4.5, 15, 113, 393},
		CapacityBytes: [numLevels]int64{64 << 10, 1440 << 10, 32 << 20, 4 << 30},
		L2SharedBy:    2,
	}
}

// Validate checks internal consistency: positive reference clock,
// monotonically increasing latencies and capacities, sane sharing factor.
func (h Hierarchy) Validate() error {
	if h.RefClock <= 0 {
		return fmt.Errorf("memhier: reference clock %v must be positive", h.RefClock)
	}
	if h.L2SharedBy < 1 {
		return fmt.Errorf("memhier: L2SharedBy %d must be ≥ 1", h.L2SharedBy)
	}
	for i := 0; i < int(numLevels); i++ {
		if h.LatencyCycles[i] <= 0 {
			return fmt.Errorf("memhier: %v latency must be positive", Level(i))
		}
		if h.CapacityBytes[i] <= 0 {
			return fmt.Errorf("memhier: %v capacity must be positive", Level(i))
		}
		if i > 0 {
			if h.LatencyCycles[i] <= h.LatencyCycles[i-1] {
				return fmt.Errorf("memhier: %v latency must exceed %v latency", Level(i), Level(i-1))
			}
			if h.CapacityBytes[i] <= h.CapacityBytes[i-1] {
				return fmt.Errorf("memhier: %v capacity must exceed %v capacity", Level(i), Level(i-1))
			}
		}
	}
	return nil
}

// ServiceTime returns Tᵢ, the wall-clock service time of a reference that is
// satisfied by the given level, in seconds. This is the constant the
// predictor multiplies by the access count and the candidate frequency.
func (h Hierarchy) ServiceTime(l Level) float64 {
	return h.LatencyCycles[l] / h.RefClock.Hz()
}

// ServiceTimes returns the service times of the frequency-invariant levels
// (L2, L3, DRAM) in that order.
func (h Hierarchy) ServiceTimes() (tL2, tL3, tMem float64) {
	return h.ServiceTime(L2), h.ServiceTime(L3), h.ServiceTime(DRAM)
}

// AccessRates gives a workload's per-instruction reference rates to the
// frequency-invariant levels. Rates are references per instruction; a rate
// applies to the level that *services* the reference (an L3 rate counts
// references that miss L2 and hit L3).
type AccessRates struct {
	L2PerInstr  float64
	L3PerInstr  float64
	MemPerInstr float64
}

// Validate rejects negative rates and rates above one reference of each
// kind per instruction, which no real instruction stream produces.
func (r AccessRates) Validate() error {
	for _, v := range []struct {
		name string
		rate float64
	}{{"L2", r.L2PerInstr}, {"L3", r.L3PerInstr}, {"mem", r.MemPerInstr}} {
		if v.rate < 0 || v.rate > 1 || math.IsNaN(v.rate) {
			return fmt.Errorf("memhier: %s rate %v out of [0,1]", v.name, v.rate)
		}
	}
	return nil
}

// StallTimePerInstr returns Σᵢ rᵢ·Tᵢ in seconds per instruction — the
// frequency-invariant time each instruction spends waiting on the memory
// system, the denominator term of the predictor's IPC(f).
func (r AccessRates) StallTimePerInstr(h Hierarchy) float64 {
	tL2, tL3, tMem := h.ServiceTimes()
	return r.L2PerInstr*tL2 + r.L3PerInstr*tL3 + r.MemPerInstr*tMem
}
