// Package baseline implements the comparator policies the paper positions
// fvsst against (§1, §3): powering nodes down, slowing all processors
// uniformly, and utilisation-driven DVS in the style of Transmeta LongRun /
// Intel Demand Based Switching. Each policy answers the same question
// fvsst does — "what frequency should each processor run at, given a
// global power budget?" — so the ablation experiments can swap them into
// an identical driver.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fvsst"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// Input is everything a policy may consult for one scheduling pass.
type Input struct {
	// Decs holds the per-processor predictor decompositions; nil entries
	// mean no usable window (treated as unknown/idle by policies that
	// care).
	Decs []*perfmodel.Decomposition
	// Idle flags processors known idle via the idle signal.
	Idle []bool
	// Util is each processor's busy fraction over the window, the only
	// signal utilisation-driven DVS uses (§3.1: "they rely on simple
	// metrics like the number of non-halted cycles in an interval").
	Util []float64
	// Table is the operating-point table.
	Table *power.Table
	// Budget is the aggregate processor power budget.
	Budget units.Power
	// Epsilon is the acceptable performance loss (used by the fvsst
	// policy only).
	Epsilon float64
}

// Validate checks the slices agree in length.
func (in Input) Validate() error {
	n := len(in.Decs)
	if n == 0 {
		return fmt.Errorf("baseline: empty input")
	}
	if len(in.Idle) != n || len(in.Util) != n {
		return fmt.Errorf("baseline: slice lengths disagree (%d/%d/%d)", n, len(in.Idle), len(in.Util))
	}
	if in.Table == nil {
		return fmt.Errorf("baseline: table required")
	}
	if in.Budget <= 0 {
		return fmt.Errorf("baseline: budget %v must be positive", in.Budget)
	}
	return nil
}

// Policy maps observations to a per-processor frequency assignment. A zero
// frequency means "power the processor down" (no leakage, no work).
type Policy interface {
	Name() string
	Assign(in Input) ([]units.Frequency, error)
}

// Uniform slows all processors to the same highest setting that fits the
// budget — "slowing all nodes in a system uniformly" (§1).
type Uniform struct{}

// Name implements Policy.
func (Uniform) Name() string { return "uniform" }

// Assign implements Policy.
func (Uniform) Assign(in Input) ([]units.Frequency, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Decs)
	// When even the minimum setting overshoots, this floors at it: the
	// uniform policy has no other lever.
	f := in.Table.FrequencyAtIndex(in.Table.UniformIndexUnder(in.Budget, n))
	out := make([]units.Frequency, n)
	for i := range out {
		out[i] = f
	}
	return out, nil
}

// PowerDown keeps as many processors as the budget allows at full
// frequency and powers the rest off — "powering down some nodes" (§1).
// Idle processors are shut off first, then the ones with the least
// CPU-bound work (their work is assumed lost or indefinitely delayed,
// since the paper's setting makes migration impractical).
type PowerDown struct{}

// Name implements Policy.
func (PowerDown) Name() string { return "powerdown" }

// Assign implements Policy.
func (PowerDown) Assign(in Input) ([]units.Frequency, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Decs)
	fMax := in.Table.MaxFrequency()
	pMax, err := in.Table.PowerAt(fMax)
	if err != nil {
		return nil, err
	}
	keep := int(in.Budget.W() / pMax.W())
	if keep > n {
		keep = n
	}
	// Rank processors by how much we want to keep them: busy beats idle,
	// then higher predicted full-speed performance beats lower.
	type ranked struct {
		idx   int
		score float64
	}
	rs := make([]ranked, n)
	for i := range rs {
		score := 0.0
		if !in.Idle[i] {
			score = 1
			if in.Decs[i] != nil {
				score += in.Decs[i].PerfAt(fMax) / 1e10 // tie-break on throughput
			}
		}
		rs[i] = ranked{idx: i, score: score}
	}
	sort.SliceStable(rs, func(a, b int) bool { return rs[a].score > rs[b].score })
	out := make([]units.Frequency, n)
	for rank, r := range rs {
		if rank < keep {
			out[r.idx] = fMax
		} else {
			out[r.idx] = 0 // powered off
		}
	}
	return out, nil
}

// UtilizationDVS is the LongRun/Demand-Based-Switching comparator: each
// processor's frequency tracks its utilisation with no knowledge of memory
// behaviour, then the whole assignment is clamped uniformly into the
// budget. On a hot-idle machine without an idle signal, utilisation is
// always 1 and this devolves to Uniform — exactly the §3.1 criticism.
type UtilizationDVS struct{}

// Name implements Policy.
func (UtilizationDVS) Name() string { return "util-dvs" }

// Assign implements Policy.
func (UtilizationDVS) Assign(in Input) ([]units.Frequency, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Decs)
	set := in.Table.Frequencies()
	out := make([]units.Frequency, n)
	for i := range out {
		util := in.Util[i]
		if in.Idle[i] {
			util = 0
		}
		if util < 0 {
			util = 0
		}
		if util > 1 {
			util = 1
		}
		target := units.Frequency(util * set.Max().Hz())
		if f, ok := set.CeilOf(target); ok {
			out[i] = f
		} else {
			out[i] = set.Max()
		}
	}
	// Budget clamp: cap everyone at the highest common ceiling that fits,
	// lowering the cap one step at a time.
	for {
		total := units.Power(0)
		for _, f := range out {
			p, err := in.Table.PowerAt(f)
			if err != nil {
				return nil, err
			}
			total += p
		}
		if total <= in.Budget {
			return out, nil
		}
		// Lower the highest assigned frequency by one step.
		hi := 0
		for i := 1; i < n; i++ {
			if out[i] > out[hi] {
				hi = i
			}
		}
		less, ok := set.NextBelow(out[hi])
		if !ok {
			return out, nil // floor; budget unmet, nothing more to do
		}
		out[hi] = less
	}
}

// FVSST adapts the paper's two-pass algorithm to the Policy interface so
// the ablation harness can run it side by side with the comparators.
type FVSST struct{}

// Name implements Policy.
func (FVSST) Name() string { return "fvsst" }

// Assign implements Policy.
func (FVSST) Assign(in Input) ([]units.Frequency, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Epsilon <= 0 || in.Epsilon >= 1 {
		return nil, fmt.Errorf("baseline: fvsst policy needs epsilon in (0,1), got %v", in.Epsilon)
	}
	p := fvsst.NewPass(fvsst.Config{Table: in.Table, Epsilon: in.Epsilon})
	p.Begin(len(in.Decs))
	for i, d := range in.Decs {
		switch {
		case in.Idle[i]:
			p.Idle(i)
		case d == nil:
			p.Unobserved(i)
		default:
			if err := p.Observe(i, *d); err != nil {
				return nil, err
			}
		}
	}
	p.Fit(in.Budget)
	return in.Table.FrequenciesAtIndices(p.Actual()), nil
}

// MeanNormPerf scores an assignment by the mean over busy processors of
// Perf(f)/Perf(f_max) — each workload weighted equally, so sacrificing one
// job entirely (power-down) costs its full share rather than vanishing
// behind a high-IPC neighbour. Powered-off busy processors contribute 0.
func MeanNormPerf(decs []*perfmodel.Decomposition, idle []bool, assigned []units.Frequency, fMax units.Frequency) float64 {
	sum, n := 0.0, 0
	for i, f := range assigned {
		if idle[i] || decs[i] == nil {
			continue
		}
		n++
		if f <= 0 {
			continue
		}
		sum += decs[i].PerfAt(f) / decs[i].PerfAt(fMax)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WorstCaseLoss returns the largest per-processor predicted loss of an
// assignment versus f_max, ignoring idle and powered-off processors.
// Powered-off processors with work are total losses and return 1.
func WorstCaseLoss(decs []*perfmodel.Decomposition, idle []bool, assigned []units.Frequency, set units.FrequencySet) float64 {
	worst := 0.0
	for i, f := range assigned {
		if idle[i] || decs[i] == nil {
			continue
		}
		loss := 1.0
		if f > 0 {
			loss = decs[i].PerfLoss(set.Max(), f)
		}
		worst = math.Max(worst, loss)
	}
	return worst
}
