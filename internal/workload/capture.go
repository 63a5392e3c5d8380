package workload

import (
	"fmt"

	"repro/internal/counters"
	"repro/internal/memhier"
)

// This file implements the inverse of execution: turning a sequence of
// measured counter windows back into a replayable workload profile — the
// post-processing workflow of the predecessor study [2], which determined
// appropriate frequencies per job offline from collected counter data.

// WindowObservation is one counter window with the frequency it ran at (in
// Hz), the minimum information needed to invert the performance model.
type WindowObservation struct {
	Delta  counters.Delta
	FreqHz float64
}

// CaptureConfig tunes profile extraction. Windows are inverted against
// the p630 hierarchy, the one the predictor assumes.
type CaptureConfig struct {
	// MergeTolerance is the relative difference in per-instruction
	// characteristics below which consecutive windows merge into one
	// phase (0.15 = 15%).
	MergeTolerance float64
}

// maxAlpha clamps the recovered perfect-machine IPC.
const maxAlpha = 8.0

// DefaultCaptureConfig matches the predictor's assumptions.
func DefaultCaptureConfig() CaptureConfig {
	return CaptureConfig{MergeTolerance: 0.15}
}

// Validate checks the capture configuration.
func (c CaptureConfig) Validate() error {
	if c.MergeTolerance <= 0 || c.MergeTolerance > 1 {
		return fmt.Errorf("workload: merge tolerance %v out of (0,1]", c.MergeTolerance)
	}
	return nil
}

// FromObservations reconstructs a phase-structured program from measured
// windows: each window yields per-instruction rates and an implied α
// (observed CPI minus the memory component at the observed frequency);
// consecutive windows with similar characteristics merge into one phase.
// The result replays in the simulator with the same counter signature the
// original run produced.
func FromObservations(name string, obs []WindowObservation, cfg CaptureConfig) (Program, error) {
	if err := cfg.Validate(); err != nil {
		return Program{}, err
	}
	if name == "" {
		return Program{}, fmt.Errorf("workload: capture needs a name")
	}
	if len(obs) == 0 {
		return Program{}, fmt.Errorf("workload: no observations")
	}
	h := memhier.P630()
	var phases []Phase
	for i, o := range obs {
		d := o.Delta
		if o.FreqHz <= 0 {
			return Program{}, fmt.Errorf("workload: observation %d has frequency %v", i, o.FreqHz)
		}
		if d.Instructions == 0 || d.Cycles == 0 {
			continue // empty window (idle) carries no phase information
		}
		rates := memhier.AccessRates{
			L2PerInstr:  d.L2PerInstr(),
			L3PerInstr:  d.L3PerInstr(),
			MemPerInstr: d.MemPerInstr(),
		}
		if err := rates.Validate(); err != nil {
			return Program{}, fmt.Errorf("workload: observation %d: %w", i, err)
		}
		cpi := 1 / d.IPC()
		core := cpi - rates.StallTimePerInstr(h)*o.FreqHz
		alpha := maxAlpha
		if core > 1/maxAlpha {
			alpha = 1 / core
		}
		ph := Phase{
			Name:         fmt.Sprintf("w%d", len(phases)),
			Alpha:        alpha,
			Rates:        rates,
			Instructions: d.Instructions,
		}
		if n := len(phases); n > 0 && similar(phases[n-1], ph, cfg.MergeTolerance) {
			merged := mergePhases(phases[n-1], ph)
			phases[n-1] = merged
			continue
		}
		phases = append(phases, ph)
	}
	if len(phases) == 0 {
		return Program{}, fmt.Errorf("workload: all observations were empty")
	}
	p := Program{Name: name, Phases: phases}
	if err := p.Validate(); err != nil {
		return Program{}, err
	}
	return p, nil
}

// similar reports whether two phases are within tol on α and total stall
// time per instruction.
func similar(a, b Phase, tol float64) bool {
	h := memhier.P630()
	if relDelta(a.Alpha, b.Alpha) > tol {
		return false
	}
	sa, sb := a.StallTimePerInstr(h), b.StallTimePerInstr(h)
	if sa == 0 && sb == 0 {
		return true
	}
	return relDelta(sa, sb) <= tol
}

func relDelta(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}

// mergePhases combines two phases instruction-weighted.
func mergePhases(a, b Phase) Phase {
	wa, wb := float64(a.Instructions), float64(b.Instructions)
	tot := wa + wb
	mix := func(x, y float64) float64 { return (x*wa + y*wb) / tot }
	return Phase{
		Name:  a.Name,
		Alpha: mix(a.Alpha, b.Alpha),
		Rates: memhier.AccessRates{
			L2PerInstr:  mix(a.Rates.L2PerInstr, b.Rates.L2PerInstr),
			L3PerInstr:  mix(a.Rates.L3PerInstr, b.Rates.L3PerInstr),
			MemPerInstr: mix(a.Rates.MemPerInstr, b.Rates.MemPerInstr),
		},
		Instructions:              a.Instructions + b.Instructions,
		NonMemStallCyclesPerInstr: mix(a.NonMemStallCyclesPerInstr, b.NonMemStallCyclesPerInstr),
	}
}
