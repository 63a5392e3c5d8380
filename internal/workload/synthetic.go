package workload

import (
	"fmt"

	"repro/internal/memhier"
)

// Synthetic workload calibration constants. The post-L1 rate ramps from
// synBaseRate at 100% CPU intensity (even pure-CPU phases suffer some
// memory stalls, §8.3) to synBaseRate+synRampRate at 0%. The footprint
// routes post-L1 traffic through the miss model so most of it reaches DRAM.
const (
	synAlpha       = 1.4
	synBaseRate    = 0.001
	synRampRate    = 0.019
	synFootprint   = int64(3) << 30 // 3 GB, ≫ 32 MB L3
	synNonMemStall = 0.06           // invisible-to-counters stall cycles/instr
)

// SyntheticPhase builds one phase of the synthetic benchmark (§7.3) at the
// given CPU intensity (0–100), sized to run about seconds at 1 GHz on the
// P630 hierarchy without contention. It always has at least one
// instruction.
func SyntheticPhase(name string, intensityPct, seconds float64) (Phase, error) {
	if intensityPct < 0 || intensityPct > 100 {
		return Phase{}, fmt.Errorf("workload: intensity %v%% out of [0,100]", intensityPct)
	}
	h := memhier.P630()
	m := 1 - intensityPct/100
	postL1 := synBaseRate + synRampRate*m
	// Route post-L1 traffic through the power-law miss model with the
	// benchmark's huge footprint; AccessesPerInstr·L1MissRatio is the
	// post-L1 rate, split here as rate×1 for clarity.
	model := memhier.MissModel{
		FootprintBytes:   synFootprint,
		AccessesPerInstr: postL1,
		L1MissRatio:      1,
		Theta:            0.5,
	}
	rates, err := model.Rates(h)
	if err != nil {
		return Phase{}, err
	}
	p := Phase{
		Name:                      name,
		Alpha:                     synAlpha,
		Rates:                     rates,
		NonMemStallCyclesPerInstr: synNonMemStall,
	}
	const fHz = 1e9
	n := fHz / p.TrueCyclesPerInstr(h, fHz, 1) * seconds
	p.Instructions = 1
	if n >= 1 {
		p.Instructions = uint64(n)
	}
	return p, nil
}

// HotIdle returns the Power4+ idle loop: a tight, CPU-intensive loop with
// an observed IPC around 1.3 (§7.1) that never touches memory and never
// ends. Without idle detection, a scheduler dutifully runs it at maximum
// frequency — the pathology §5 describes.
func HotIdle() Program {
	return Program{
		Name: "hot-idle",
		Phases: []Phase{{
			Name:         "spin",
			Alpha:        1.3,
			Rates:        memhier.AccessRates{},
			Instructions: 1 << 30,
		}},
		LoopFrom: 0,
		Loops:    -1,
	}
}
