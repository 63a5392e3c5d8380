package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Arrival is one job arriving at a processor at a point in simulation time
// — the open-workload model of a server or server-farm node, where work
// shows up over the day rather than being staged up front (§1's server
// environment, and the demand-variation setting of the related DVS work).
type Arrival struct {
	At      float64 // seconds
	CPU     int
	Program Program
}

// Schedule is a time-ordered list of arrivals.
type Schedule []Arrival

// Validate checks ordering-independent constraints; the consumer sorts.
func (s Schedule) Validate() error {
	for i, a := range s {
		if a.At < 0 {
			return fmt.Errorf("workload: arrival %d at negative time %v", i, a.At)
		}
		if a.CPU < 0 {
			return fmt.Errorf("workload: arrival %d on negative CPU", i)
		}
		if err := a.Program.Validate(); err != nil {
			return fmt.Errorf("workload: arrival %d: %w", i, err)
		}
	}
	return nil
}

// InterArrival draws unit-mean inter-arrival gaps for a renewal process.
// Keeping the gap distribution at unit mean separates *shape* (burstiness,
// expressed by the coefficient of variation) from *rate*: the generator
// (serve.Stream) divides each gap by the instantaneous rate, so the same
// spec family covers Poisson (CV 1), hyper-dispersed Gamma (CV > 1) and
// regular Weibull (CV < 1) traffic.
type InterArrival interface {
	// Gap draws the next unit-mean gap.
	Gap(rng *rand.Rand) float64
}

// ExpGaps is the exponential (memoryless) gap distribution: a renewal
// process with ExpGaps is a Poisson process. CV is 1 by construction.
type ExpGaps struct{}

// Gap implements InterArrival.
func (ExpGaps) Gap(rng *rand.Rand) float64 { return rng.ExpFloat64() }

// GammaGaps draws Gamma(shape k, scale 1/k) gaps — unit mean, CV = 1/√k.
// Shape < 1 yields bursty traffic (CV > 1), shape > 1 regular traffic.
type GammaGaps struct {
	Shape float64
}

// Gap implements InterArrival.
func (g GammaGaps) Gap(rng *rand.Rand) float64 {
	return sampleGamma(rng, g.Shape) / g.Shape
}

// WeibullGaps draws Weibull(shape k) gaps rescaled to unit mean
// (scale = 1/Γ(1+1/k)). Shape > 1 gives sub-exponential variability
// (ageing inter-arrival hazard), shape < 1 heavy-tailed bursts.
type WeibullGaps struct {
	Shape float64
}

// Gap implements InterArrival.
func (w WeibullGaps) Gap(rng *rand.Rand) float64 {
	// Inverse-CDF draw: (−ln(1−U))^(1/k), then normalise the mean away.
	return math.Pow(-math.Log1p(-rng.Float64()), 1/w.Shape) / math.Gamma(1+1/w.Shape)
}

// sampleGamma draws Gamma(shape, 1) by Marsaglia–Tsang squeeze, with the
// standard boost for shape < 1.
func sampleGamma(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		return sampleGamma(rng, shape+1) * math.Pow(rng.Float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// RateFn is a time-varying mean arrival rate in requests/second.
type RateFn func(t float64) float64

// ConstantRate returns a flat rate function.
func ConstantRate(rate float64) RateFn {
	return func(float64) float64 { return rate }
}

// DiurnalRate is the raised-sinusoid day/night demand curve:
// rate(t) = base·(1 + depth·sin(2π(t/period + phase))). Depth must be in
// [0,1) so the rate stays positive; phase is a fraction of the period.
func DiurnalRate(base, depth, period, phase float64) RateFn {
	return func(t float64) float64 {
		return base * (1 + depth*math.Sin(2*math.Pi*(t/period+phase)))
	}
}

// DiurnalArrivals draws arrivals from a time-varying Poisson process whose
// rate follows a raised sinusoid — the classic day/night demand curve of a
// server farm: rate(t) = base·(1 + depth·sin(2πt/period)). Thinning
// (Lewis-Shedler) keeps the draw exact.
func DiurnalArrivals(rng *rand.Rand, base, depth, period, horizon float64, numCPUs int, makeJob func(i int) Program) (Schedule, error) {
	if rng == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	if base <= 0 || period <= 0 || horizon <= 0 || numCPUs <= 0 {
		return nil, fmt.Errorf("workload: base %v, period %v, horizon %v, cpus %d must be positive", base, period, horizon, numCPUs)
	}
	if depth < 0 || depth > 1 {
		return nil, fmt.Errorf("workload: depth %v out of [0,1]", depth)
	}
	rateMax := base * (1 + depth)
	var out Schedule
	t := 0.0
	i := 0
	for {
		t += rng.ExpFloat64() / rateMax
		if t >= horizon {
			break
		}
		rate := base * (1 + depth*math.Sin(2*math.Pi*t/period))
		if rng.Float64()*rateMax <= rate {
			out = append(out, Arrival{At: t, CPU: i % numCPUs, Program: makeJob(i)})
			i++
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
