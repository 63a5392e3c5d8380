package machine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// TestNewThrottleValidation: a machine is built with no throttle that has
// fewer than one duty level or a settle time that is negative or NaN.
func TestNewThrottleValidation(t *testing.T) {
	for name, bad := range map[string]func(*Config){
		"zero steps":      func(c *Config) { c.ThrottleSteps = 0 },
		"negative settle": func(c *Config) { c.ThrottleSettle = -1 },
		"NaN settle":      func(c *Config) { c.ThrottleSettle = math.NaN() },
	} {
		cfg := P630Config()
		bad(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestStartsUnthrottled(t *testing.T) {
	th := newThrottle(units.GHz(1), 100, 0)
	if got := th.effective(0); got != units.GHz(1) {
		t.Errorf("fresh throttle effective = %v, want nominal", got)
	}
}

func TestQuantizeDuty(t *testing.T) {
	th := newThrottle(units.GHz(1), 10, 0)
	cases := []struct{ in, want float64 }{
		{0.0, 0.0}, {1.0, 1.0}, {0.72, 0.7}, {0.76, 0.8},
		{-0.5, 0.0}, {1.5, 1.0}, {0.05, 0.1}, {0.04, 0.0},
	}
	for _, c := range cases {
		if got := th.quantizeDuty(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantizeDuty(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRequestImmediateWithZeroSettle(t *testing.T) {
	th := newThrottle(units.GHz(1), 1000, 0)
	got, err := th.request(0, units.MHz(750))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.MHz()-750) > 1 {
		t.Errorf("requested 750MHz, promised %v", got)
	}
	if eff := th.effective(0); math.Abs(eff.MHz()-750) > 1 {
		t.Errorf("effective = %v, want ≈750MHz immediately", eff)
	}
}

func TestRequestRejectsOutOfRange(t *testing.T) {
	th := newThrottle(units.GHz(1), 100, 0)
	if _, err := th.request(0, units.GHz(2)); err == nil {
		t.Error("above-nominal accepted")
	}
	if _, err := th.request(0, units.Frequency(-1)); err == nil {
		t.Error("negative accepted")
	}
}

func TestSettlingDelay(t *testing.T) {
	th := newThrottle(units.GHz(1), 1000, 0.005) // 5 ms settle
	if _, err := th.request(1.0, units.MHz(500)); err != nil {
		t.Fatal(err)
	}
	if !th.settling(1.0) {
		t.Error("should be settling right after request")
	}
	if eff := th.effective(1.002); eff != units.GHz(1) {
		t.Errorf("effective during settle = %v, want nominal", eff)
	}
	if eff := th.effective(1.005); math.Abs(eff.MHz()-500) > 1 {
		t.Errorf("effective after settle = %v, want 500MHz", eff)
	}
	if th.settling(1.01) {
		t.Error("still settling after deadline")
	}
}

func TestRequestSupersedesPending(t *testing.T) {
	th := newThrottle(units.GHz(1), 1000, 0.005)
	th.request(0, units.MHz(500))
	// Before the first matures, request something else.
	th.request(0.001, units.MHz(800))
	// At t=0.004 the first request's deadline (0.005) has not passed and
	// was superseded anyway.
	if eff := th.effective(0.004); eff != units.GHz(1) {
		t.Errorf("effective = %v, want nominal while second settles", eff)
	}
	if eff := th.effective(0.006); math.Abs(eff.MHz()-800) > 1 {
		t.Errorf("effective = %v, want 800MHz from superseding request", eff)
	}
}

func TestDutyZeroStopsProcessor(t *testing.T) {
	th := newThrottle(units.GHz(1), 100, 0)
	th.request(0, 0)
	if eff := th.effective(0); eff != 0 {
		t.Errorf("duty 0 effective = %v, want 0", eff)
	}
}

func TestFullDutyAlwaysNominalProperty(t *testing.T) {
	err := quick.Check(func(stepsRaw uint8) bool {
		steps := int(stepsRaw%200) + 1
		th := newThrottle(units.GHz(1), steps, 0)
		if _, err := th.request(0, units.GHz(1)); err != nil {
			return false
		}
		return th.effective(0) == units.GHz(1)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestEffectiveMonotoneInRequestProperty(t *testing.T) {
	err := quick.Check(func(a, b uint16) bool {
		fa := units.MHz(float64(a % 1001))
		fb := units.MHz(float64(b % 1001))
		if fa > fb {
			fa, fb = fb, fa
		}
		t1 := newThrottle(units.GHz(1), 100, 0)
		t2 := newThrottle(units.GHz(1), 100, 0)
		t1.request(0, fa)
		t2.request(0, fb)
		return t1.effective(0) <= t2.effective(0)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
