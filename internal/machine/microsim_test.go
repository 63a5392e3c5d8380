package machine

// The micro-simulator: a discrete per-instruction-block executor, the test
// oracle for the analytic execution model the machine and the predictor
// share. Where Machine computes cycles from the closed-form CPI expression
// (workload.Phase.TrueCyclesPerInstr), microRun executes a phase as a
// stream of instruction blocks whose cache behaviour is drawn
// stochastically (Bernoulli per-level reference draws at the phase's
// rates) and whose memory service times are summed individually — the
// Monte-Carlo ground truth the closed form is a mean-field approximation
// of.
//
// The tests in microsim_model_test.go assert the two agree to well under a
// percent over the whole frequency range and rate space, which is what
// justifies using the fast analytic machine everywhere else.

import (
	"fmt"
	"math/rand"

	"repro/internal/memhier"
	"repro/internal/units"
	"repro/internal/workload"
)

// microResult summarises one micro-simulation.
type microResult struct {
	Instructions uint64
	Cycles       float64
	// Refs counts references serviced per level.
	L2Refs, L3Refs, MemRefs uint64
}

// IPC returns instructions per cycle.
func (r microResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / r.Cycles
}

// Seconds returns the wall-clock time of the simulated stream at frequency
// f.
func (r microResult) Seconds(f units.Frequency) float64 {
	return r.Cycles / f.Hz()
}

// microConfig parameterises the micro-simulation.
type microConfig struct {
	Hier memhier.Hierarchy
	// BlockSize is how many instructions share one random draw; 1 is the
	// purest model, larger blocks trade variance for speed.
	BlockSize uint64
	Seed      int64
	// OverlapFactor models memory-level parallelism: the fraction of each
	// reference's latency that is NOT hidden by out-of-order overlap.
	// 1 = fully serialised (the analytic model's assumption).
	OverlapFactor float64
}

// defaultMicroConfig matches the analytic model's assumptions.
func defaultMicroConfig() microConfig {
	return microConfig{Hier: memhier.P630(), BlockSize: 64, Seed: 1, OverlapFactor: 1}
}

// Validate checks the configuration.
func (c microConfig) Validate() error {
	if err := c.Hier.Validate(); err != nil {
		return err
	}
	if c.BlockSize == 0 {
		return fmt.Errorf("microsim: block size must be positive")
	}
	if c.OverlapFactor <= 0 || c.OverlapFactor > 1 {
		return fmt.Errorf("microsim: overlap factor %v out of (0,1]", c.OverlapFactor)
	}
	return nil
}

// microRun executes n instructions of phase p at frequency f and returns the
// measured counts. Core work costs 1/α + nonMemStall cycles per
// instruction; each instruction independently references L2/L3/memory with
// the phase's per-instruction probabilities, and a reference stalls the
// core for its level's service time (converted to cycles at f).
func microRun(cfg microConfig, p workload.Phase, f units.Frequency, n uint64) (microResult, error) {
	if err := cfg.Validate(); err != nil {
		return microResult{}, err
	}
	if err := p.Validate(); err != nil {
		return microResult{}, err
	}
	if f <= 0 {
		return microResult{}, fmt.Errorf("microsim: frequency %v must be positive", f)
	}
	if n == 0 {
		return microResult{}, fmt.Errorf("microsim: need at least one instruction")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := cfg.Hier
	corePerInstr := 1/p.Alpha + p.NonMemStallCyclesPerInstr
	cycPerL2 := h.ServiceTime(memhier.L2) * f.Hz() * cfg.OverlapFactor
	cycPerL3 := h.ServiceTime(memhier.L3) * f.Hz() * cfg.OverlapFactor
	cycPerMem := h.ServiceTime(memhier.DRAM) * f.Hz() * cfg.OverlapFactor

	var res microResult
	block := cfg.BlockSize
	for done := uint64(0); done < n; done += block {
		b := block
		if done+b > n {
			b = n - done
		}
		bf := float64(b)
		res.Cycles += corePerInstr * bf
		// Binomial draws per block (normal approximation would bias the
		// tails; direct Bernoulli summing keeps it exact and is fast
		// enough at these rates).
		l2 := binomial(rng, b, p.Rates.L2PerInstr)
		l3 := binomial(rng, b, p.Rates.L3PerInstr)
		mem := binomial(rng, b, p.Rates.MemPerInstr)
		res.L2Refs += l2
		res.L3Refs += l3
		res.MemRefs += mem
		res.Cycles += float64(l2)*cycPerL2 + float64(l3)*cycPerL3 + float64(mem)*cycPerMem
		res.Instructions += b
	}
	return res, nil
}

// binomial draws Binomial(n, p) by inversion for small n·p and by normal
// tail-safe summing otherwise; n here is a block size (≤ a few thousand),
// so direct Bernoulli summation is affordable and exact.
func binomial(rng *rand.Rand, n uint64, p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	var k uint64
	for i := uint64(0); i < n; i++ {
		if rng.Float64() < p {
			k++
		}
	}
	return k
}

// analyticCycles returns the closed-form cycle count the machine simulator
// would charge for the same work — the quantity microRun validates.
func analyticCycles(h memhier.Hierarchy, p workload.Phase, f units.Frequency, n uint64) float64 {
	return p.TrueCyclesPerInstr(h, f.Hz(), 1) * float64(n)
}

// microRelativeError runs the micro-simulation and returns |micro - analytic| /
// analytic on total cycles.
func microRelativeError(cfg microConfig, p workload.Phase, f units.Frequency, n uint64) (float64, error) {
	res, err := microRun(cfg, p, f, n)
	if err != nil {
		return 0, err
	}
	ana := analyticCycles(cfg.Hier, p, f, n)
	d := res.Cycles - ana
	if d < 0 {
		d = -d
	}
	return d / ana, nil
}
