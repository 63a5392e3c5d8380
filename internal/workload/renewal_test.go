package workload

import (
	"math"
	"math/rand"
	"testing"
)

// gapStats draws n gaps and returns the empirical mean and CV.
func gapStats(t *testing.T, g InterArrival, seed int64, n int) (mean, cv float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.Gap(rng)
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("gap draw %d = %v", i, v)
		}
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance) / mean
}

// TestGapDistributionsMoments pools draws across 100 seeds per
// distribution and checks the empirical mean is 1 and the empirical CV
// matches the declared CV() within tolerance — the statistical contract
// the serving layer's arrival specs rely on.
func TestGapDistributionsMoments(t *testing.T) {
	cases := []struct {
		name string
		g    InterArrival
	}{
		{"exp", ExpGaps{}},
		{"gamma-cv2", GammaGaps{Shape: 0.25}},
		{"gamma-cv0.5", GammaGaps{Shape: 4}},
		{"weibull-k0.7", WeibullGaps{Shape: 0.7}},
		{"weibull-k2", WeibullGaps{Shape: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var meanSum, cvSum float64
			const seeds = 100
			for s := int64(1); s <= seeds; s++ {
				m, cv := gapStats(t, tc.g, s, 2000)
				meanSum += m
				cvSum += cv
			}
			mean, cv := meanSum/seeds, cvSum/seeds
			if math.Abs(mean-1) > 0.02 {
				t.Errorf("pooled mean = %v, want 1 ± 0.02", mean)
			}
			// CV estimators are biased low for heavy-tailed draws at
			// finite n; allow a proportionally wider band.
			want := tc.g.CV()
			if math.Abs(cv-want) > 0.08*want+0.02 {
				t.Errorf("pooled CV = %v, want %v", cv, want)
			}
		})
	}
}

// TestCursorRebind: rebinding repositions the cursor on the new program
// with no leftover state from the old one.
func TestCursorRebind(t *testing.T) {
	a := Program{Name: "a", Phases: []Phase{{Name: "p", Alpha: 1, Instructions: 10}}}
	c, err := NewCursor(a)
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(10)
	if !c.Done() {
		t.Fatal("cursor should be done")
	}
	phases := []Phase{{Name: "q", Alpha: 1, Instructions: 7}}
	c.Rebind(Program{Name: "b", Phases: phases})
	if c.Done() || c.Program().Name != "b" || c.RemainingInPhase() != 7 {
		t.Errorf("rebind state: done=%v name=%q rem=%d", c.Done(), c.Program().Name, c.RemainingInPhase())
	}
	// The serving hot path mutates the shared phase slice between rebinds.
	phases[0].Instructions = 3
	c.Rebind(Program{Name: "b", Phases: phases})
	if got := c.Advance(100); got != 3 {
		t.Errorf("advanced %d instructions, want 3", got)
	}
}
