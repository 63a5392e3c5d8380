package experiments

// The comparator policies the paper positions fvsst against (§1, §3):
// powering nodes down, slowing all processors uniformly, and
// utilisation-driven DVS in the style of Transmeta LongRun / Intel Demand
// Based Switching. Each answers the question fvsst does — "what frequency
// should each processor run at, given a global power budget?" — from the
// same inputs, so the ab-policies ablation can score them side by side.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fvsst"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// policyInput is everything a policy may consult for one scheduling pass.
// Its slices have one entry per processor.
type policyInput struct {
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

// policies are the ablation's policies in report column order. Each maps
// one pass's input to a per-processor frequency assignment, a zero
// frequency meaning "power the processor down" (no leakage, no work).
var policies = []struct {
	name   string
	assign func(policyInput) ([]units.Frequency, error)
}{
	{"fvsst", assignFVSST},
	{"uniform", assignUniform},
	{"powerdown", assignPowerDown},
	{"util-dvs", assignUtilDVS},
}

// assignUniform slows all processors to the same highest setting that fits
// the budget — "slowing all nodes in a system uniformly" (§1).
func assignUniform(in policyInput) ([]units.Frequency, error) {
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

// assignPowerDown keeps as many processors as the budget allows at full
// frequency and powers the rest off — "powering down some nodes" (§1).
// Idle processors are shut off first, then the ones with the least
// CPU-bound work (their work is assumed lost or indefinitely delayed,
// since the paper's setting makes migration impractical).
func assignPowerDown(in policyInput) ([]units.Frequency, error) {
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

// assignUtilDVS is the LongRun/Demand-Based-Switching comparator: each
// processor's frequency tracks its utilisation with no knowledge of memory
// behaviour, then the whole assignment is clamped uniformly into the
// budget. On a hot-idle machine without an idle signal, utilisation is
// always 1 and this devolves to uniform — exactly the §3.1 criticism.
func assignUtilDVS(in policyInput) ([]units.Frequency, error) {
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

// assignFVSST runs the paper's two-pass algorithm — the shipped
// fvsst.Pass — on the same inputs as the comparators.
func assignFVSST(in policyInput) ([]units.Frequency, error) {
	if in.Epsilon <= 0 || in.Epsilon >= 1 {
		return nil, fmt.Errorf("experiments: fvsst policy needs epsilon in (0,1), got %v", in.Epsilon)
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

// meanNormPerf scores an assignment by the mean over busy processors of
// Perf(f)/Perf(f_max) — each workload weighted equally, so sacrificing one
// job entirely (power-down) costs its full share rather than vanishing
// behind a high-IPC neighbour. Powered-off busy processors contribute 0.
func meanNormPerf(decs []*perfmodel.Decomposition, idle []bool, assigned []units.Frequency, fMax units.Frequency) float64 {
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

// worstCaseLoss returns the largest per-processor predicted loss of an
// assignment versus f_max, ignoring idle and powered-off processors.
// Powered-off processors with work are total losses and return 1.
func worstCaseLoss(decs []*perfmodel.Decomposition, idle []bool, assigned []units.Frequency, set units.FrequencySet) float64 {
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
