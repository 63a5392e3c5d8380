// Package perfmodel implements the paper's predictive performance model
// (§4.3): from one window of performance-counter data it decomposes a
// processor's cycles into a frequency-dependent core component (1/α) and a
// frequency-independent memory component (Σ Nᵢ·Tᵢ), and from that predicts
// IPC and performance at any candidate frequency:
//
//	IPC(f) = 1 / (1/α + (Σᵢ (Nᵢ/Instr)·Tᵢ) · f)
//	Perf(f) = IPC(f) · f
//
// The package also provides the paper's PerfLoss metric and the
// closed-form ideal frequency of §5.
package perfmodel

import (
	"fmt"

	"repro/internal/counters"
	"repro/internal/memhier"
	"repro/internal/units"
)

// MaxAlpha bounds the perfect-machine IPC: no Power4-class core retires
// more than ~8 instructions per cycle, and a noisy observation that implies
// a higher α is clamped rather than trusted.
const MaxAlpha = 8.0

// Observation is one window of counter data together with the effective
// frequency the processor ran at during the window — everything the
// predictor is allowed to see.
type Observation struct {
	Delta counters.Delta
	Freq  units.Frequency
}

// ObservationFrom is the usable-window predicate: a counter window becomes
// an observation only if it retired instructions over a non-zero number
// of cycles at a positive observed frequency (otherwise the schedulers
// pin the processor at f_max). Must stay inlinable for the zero-alloc paths.
func ObservationFrom(d counters.Delta) (Observation, bool) {
	fHz := d.ObservedFrequencyHz()
	if d.Instructions == 0 || d.Cycles == 0 || fHz <= 0 {
		return Observation{}, false
	}
	return Observation{Delta: d, Freq: units.Frequency(fHz)}, true
}

// Validate checks the observation is usable for prediction.
func (o Observation) Validate() error {
	if o.Freq <= 0 {
		return fmt.Errorf("perfmodel: observation frequency %v must be positive", o.Freq)
	}
	if o.Delta.Instructions == 0 || o.Delta.Cycles == 0 {
		return fmt.Errorf("perfmodel: observation has no retired work")
	}
	return o.Delta.Validate()
}

// Decomposition is the frequency-dependent/independent split of a
// workload's per-instruction cost.
type Decomposition struct {
	// InvAlpha is 1/α: core cycles per instruction on a perfect memory
	// system.
	InvAlpha float64
	// StallSecPerInstr is Σᵢ rᵢ·Tᵢ: seconds per instruction spent in the
	// memory system, invariant under frequency scaling.
	StallSecPerInstr float64
}

// Predictor holds the machine constants the model needs: the memory
// hierarchy (for the Tᵢ service times).
type Predictor struct {
	Hier memhier.Hierarchy
}

// New returns a predictor over the given hierarchy.
func New(h memhier.Hierarchy) (Predictor, error) {
	if err := h.Validate(); err != nil {
		return Predictor{}, err
	}
	return Predictor{Hier: h}, nil
}

// Decompose derives the cycle decomposition from a single observation: the
// memory term comes from the counter-reported access counts and the
// constant service times; the core term is whatever is left of the observed
// cycles-per-instruction after subtracting the memory cycles at the
// observed frequency. A noisy window whose memory term already exceeds the
// observed CPI clamps InvAlpha at 1/MaxAlpha.
func (p Predictor) Decompose(o Observation) (Decomposition, error) {
	if err := o.Validate(); err != nil {
		return Decomposition{}, err
	}
	d := o.Delta
	rates := memhier.AccessRates{
		L2PerInstr:  d.L2PerInstr(),
		L3PerInstr:  d.L3PerInstr(),
		MemPerInstr: d.MemPerInstr(),
	}
	stall := rates.StallTimePerInstr(p.Hier)
	cpi := 1 / d.IPC()
	invAlpha := cpi - stall*o.Freq.Hz()
	if invAlpha < 1/MaxAlpha {
		invAlpha = 1 / MaxAlpha
	}
	return Decomposition{InvAlpha: invAlpha, StallSecPerInstr: stall}, nil
}

// IPCAt predicts instructions per cycle at frequency f.
func (d Decomposition) IPCAt(f units.Frequency) float64 {
	return 1 / (d.InvAlpha + d.StallSecPerInstr*f.Hz())
}

// PerfAt predicts performance — the instruction completion rate in
// instructions per second — at frequency f: Perf(f) = IPC(f)·f.
func (d Decomposition) PerfAt(f units.Frequency) float64 {
	return d.IPCAt(f) * f.Hz()
}

// PerfLoss returns the predicted fraction of performance lost by running at
// target f instead of reference g: (Perf(g) - Perf(f)) / Perf(g). Positive
// values are losses, negative values gains. The scheduler's ε-criterion is
// PerfLoss(f_max → f) < ε.
func (d Decomposition) PerfLoss(g, f units.Frequency) float64 {
	pg := d.PerfAt(g)
	if pg == 0 {
		return 0
	}
	return (pg - d.PerfAt(f)) / pg
}

// IdealFrequency computes the §5 closed form: the continuous frequency at
// which the workload retains (1-ε) of its performance at fMax. CPU-bound
// windows (predicted IPC at fMax above the ipcCutoff of 1, per the paper's
// "fideal = fmax if IPC > 1") return fMax directly, as do workloads whose
// saturation performance cannot support the target.
func (d Decomposition) IdealFrequency(fMax units.Frequency, epsilon float64) (units.Frequency, error) {
	if !(epsilon > 0 && epsilon < 1) {
		return 0, fmt.Errorf("perfmodel: epsilon %v out of (0,1)", epsilon)
	}
	if fMax <= 0 {
		return 0, fmt.Errorf("perfmodel: fMax %v must be positive", fMax)
	}
	if d.IPCAt(fMax) > 1 {
		return fMax, nil
	}
	target := d.PerfAt(fMax) * (1 - epsilon)
	denom := 1 - d.StallSecPerInstr*target
	if denom <= 0 {
		return fMax, nil
	}
	f := units.Frequency(d.InvAlpha * target / denom)
	if f > fMax {
		f = fMax
	}
	return f, nil
}
