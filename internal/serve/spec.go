package serve

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// ArrivalSpec describes one client's open-loop arrival process in a
// compact, parseable form:
//
//	kind:rate[,key=value]*
//
// where kind is poisson, gamma or weibull, rate is the mean arrival rate
// in requests/second, and the optional keys are
//
//	cv      coefficient of variation of inter-arrival gaps
//	        (gamma/weibull only; poisson is CV 1 by definition)
//	depth   diurnal modulation depth in [0,1)
//	period  diurnal period in seconds (required when depth > 0)
//	phase   diurnal phase offset as a fraction of the period in [0,1)
//
// Examples: "poisson:30", "gamma:30,cv=2,depth=0.8,period=4",
// "weibull:12,cv=0.5". The textual form is what scenario generation and
// experiment configs carry; Parse/String round-trip exactly.
type ArrivalSpec struct {
	Kind   string  `json:"kind"`
	Rate   float64 `json:"rate"`
	CV     float64 `json:"cv,omitempty"`
	Depth  float64 `json:"depth,omitempty"`
	Period float64 `json:"period,omitempty"`
	Phase  float64 `json:"phase,omitempty"`
}

// Arrival-spec bounds. Generous but finite: the parser is fuzzed, and an
// accepted spec must always yield a usable generator.
const (
	maxRate   = 1e9
	maxCV     = 20
	maxPeriod = 1e7
)

// ParseArrivalSpec parses the textual form. The returned spec is always
// Validate-clean.
func ParseArrivalSpec(s string) (ArrivalSpec, error) {
	var a ArrivalSpec
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return a, fmt.Errorf("serve: arrival spec %q missing ':'", s)
	}
	a.Kind = kind
	parts := strings.Split(rest, ",")
	rate, err := parseFinite(parts[0])
	if err != nil {
		return a, fmt.Errorf("serve: arrival spec rate: %w", err)
	}
	a.Rate = rate
	switch a.Kind {
	case "poisson":
		a.CV = 1
	case "gamma", "weibull":
		a.CV = 1
	default:
		return a, fmt.Errorf("serve: arrival kind %q (want poisson, gamma or weibull)", a.Kind)
	}
	for _, kv := range parts[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return a, fmt.Errorf("serve: arrival spec option %q missing '='", kv)
		}
		v, err := parseFinite(val)
		if err != nil {
			return a, fmt.Errorf("serve: arrival spec option %q: %w", key, err)
		}
		switch key {
		case "cv":
			if a.Kind == "poisson" {
				return a, fmt.Errorf("serve: poisson arrivals have CV 1, cv option not allowed")
			}
			a.CV = v
		case "depth":
			a.Depth = v
		case "period":
			a.Period = v
		case "phase":
			a.Phase = v
		default:
			return a, fmt.Errorf("serve: unknown arrival spec option %q", key)
		}
	}
	if err := a.Validate(); err != nil {
		return a, err
	}
	return a, nil
}

func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("value %q not finite", s)
	}
	return v, nil
}

// Validate checks the spec describes a realisable process.
func (a ArrivalSpec) Validate() error {
	switch a.Kind {
	case "poisson", "gamma", "weibull":
	default:
		return fmt.Errorf("serve: arrival kind %q", a.Kind)
	}
	if a.Rate <= 0 || a.Rate > maxRate {
		return fmt.Errorf("serve: arrival rate %v out of (0,%g]", a.Rate, float64(maxRate))
	}
	if a.CV <= 0 || a.CV > maxCV {
		return fmt.Errorf("serve: arrival cv %v out of (0,%d]", a.CV, maxCV)
	}
	if a.Kind == "poisson" && a.CV != 1 {
		return fmt.Errorf("serve: poisson arrivals must have CV 1")
	}
	if a.Kind == "weibull" {
		if _, err := weibullShapeForCV(a.CV); err != nil {
			return err
		}
	}
	if a.Depth < 0 || a.Depth >= 1 {
		return fmt.Errorf("serve: diurnal depth %v out of [0,1)", a.Depth)
	}
	if a.Depth > 0 && (a.Period <= 0 || a.Period > maxPeriod) {
		return fmt.Errorf("serve: diurnal period %v out of (0,%g]", a.Period, float64(maxPeriod))
	}
	if a.Depth == 0 && a.Period != 0 {
		return fmt.Errorf("serve: period %v given without depth", a.Period)
	}
	if a.Phase < 0 || a.Phase >= 1 {
		return fmt.Errorf("serve: diurnal phase %v out of [0,1)", a.Phase)
	}
	if a.Phase != 0 && a.Depth == 0 {
		return fmt.Errorf("serve: phase %v given without depth", a.Phase)
	}
	return nil
}

// String renders the canonical textual form; Parse(String()) returns an
// identical spec for any Validate-clean value.
func (a ArrivalSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s", a.Kind, fmtF(a.Rate))
	if a.Kind != "poisson" {
		fmt.Fprintf(&b, ",cv=%s", fmtF(a.CV))
	}
	if a.Depth > 0 {
		fmt.Fprintf(&b, ",depth=%s,period=%s", fmtF(a.Depth), fmtF(a.Period))
		if a.Phase > 0 {
			fmt.Fprintf(&b, ",phase=%s", fmtF(a.Phase))
		}
	}
	return b.String()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Gaps returns the unit-mean inter-arrival distribution the spec names.
func (a ArrivalSpec) Gaps() (workload.InterArrival, error) {
	switch a.Kind {
	case "poisson":
		return workload.ExpGaps{}, nil
	case "gamma":
		// Gamma CV is 1/√shape exactly.
		return workload.GammaGaps{Shape: 1 / (a.CV * a.CV)}, nil
	case "weibull":
		k, err := weibullShapeForCV(a.CV)
		if err != nil {
			return nil, err
		}
		return workload.WeibullGaps{Shape: k}, nil
	}
	return nil, fmt.Errorf("serve: arrival kind %q", a.Kind)
}

// RateFn returns the spec's (possibly diurnal) instantaneous rate.
func (a ArrivalSpec) RateFn() workload.RateFn {
	if a.Depth == 0 {
		return workload.ConstantRate(a.Rate)
	}
	return workload.DiurnalRate(a.Rate, a.Depth, a.Period, a.Phase)
}

// weibullShapeForCV inverts CV(k) = √(Γ(1+2/k)/Γ(1+1/k)² − 1), which is
// strictly decreasing in k, by bisection. CVs outside what shapes in
// [0.1, 50] can express are rejected.
func weibullShapeForCV(cv float64) (float64, error) {
	cvOf := func(k float64) float64 {
		m1 := math.Gamma(1 + 1/k)
		m2 := math.Gamma(1 + 2/k)
		return math.Sqrt(m2/(m1*m1) - 1)
	}
	lo, hi := 0.1, 50.0
	if cv > cvOf(lo) || cv < cvOf(hi) {
		return 0, fmt.Errorf("serve: weibull cv %v out of [%.4f, %.1f]", cv, cvOf(hi), cvOf(lo))
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if cvOf(mid) > cv {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Stream draws one client's arrival instants incrementally, for
// open-ended serving runs where the horizon is not known up front. It is
// a rate-modulated renewal process: each unit-mean gap is stretched by the
// reciprocal of the instantaneous rate at the previous arrival. With
// exponential gaps at a constant rate that is a Poisson process; for a
// time-varying rate it is the standard inversion approximation, exact in
// the limit of a rate varying slowly against the gap scale (diurnal
// periods ≫ 1/rate). All randomness comes from the seed, so a (spec, seed)
// pair names the exact arrival sequence; experiments reuse the same pair
// across policies to serve identical traffic.
type Stream struct {
	rng  *rand.Rand
	gaps workload.InterArrival
	rate workload.RateFn
	t    float64
	next float64
}

// NewStream starts the spec's arrival process at t = 0 under its own
// seeded generator.
func (a ArrivalSpec) NewStream(seed int64) (*Stream, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	gaps, err := a.Gaps()
	if err != nil {
		return nil, err
	}
	s := &Stream{rng: newRand(seed), gaps: gaps, rate: a.RateFn()}
	s.advance()
	return s, nil
}

func (s *Stream) advance() {
	s.t += s.gaps.Gap(s.rng) / s.rate(s.t)
	s.next = s.t
}

// Next returns the upcoming arrival instant without consuming it.
func (s *Stream) Next() float64 { return s.next }

// Pop consumes and returns the upcoming arrival instant.
func (s *Stream) Pop() float64 {
	t := s.next
	s.advance()
	return t
}

// Feeder merges per-client streams and delivers matured arrivals to a
// station in global time order (ties broken by add order), the glue
// between arrival processes and the queueing station. Delivery is
// allocation-free.
type Feeder struct {
	srcs []feederSrc
}

type feederSrc struct {
	stream *Stream
	class  int
	client int
}

// Add registers one client stream feeding the given class.
func (f *Feeder) Add(class, client int, st *Stream) {
	f.srcs = append(f.srcs, feederSrc{stream: st, class: class, client: client})
}

// DeliverUpTo offers every arrival with instant ≤ now to the station, in
// time order, and returns how many were delivered.
func (f *Feeder) DeliverUpTo(now float64, st *Station) int {
	delivered := 0
	for {
		best := -1
		bestT := math.Inf(1)
		for i := range f.srcs {
			if t := f.srcs[i].stream.Next(); t <= now && t < bestT {
				best, bestT = i, t
			}
		}
		if best < 0 {
			return delivered
		}
		src := &f.srcs[best]
		at := src.stream.Pop()
		st.Offer(at, src.class, src.client)
		delivered++
	}
}
