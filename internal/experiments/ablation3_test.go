package experiments

import (
	"strings"
	"testing"
)

func TestAblationExecModelAgreement(t *testing.T) {
	rep, err := AblationExecModel(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The CPU3* < CPU3 conclusion must hold under both noise models.
	if rep.DevAnalyticStar >= rep.DevAnalytic {
		t.Errorf("analytic: star %.4f not below raw %.4f", rep.DevAnalyticStar, rep.DevAnalytic)
	}
	if rep.DevMonteCarloStar >= rep.DevMonteCarlo {
		t.Errorf("MC: star %.4f not below raw %.4f", rep.DevMonteCarloStar, rep.DevMonteCarlo)
	}
	// And the magnitudes agree across models within 2× — the error is a
	// property of the mechanism, not of one simulator's noise source.
	ratio := rep.DevMonteCarlo / rep.DevAnalytic
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("exec models disagree on error magnitude: %.4f vs %.4f", rep.DevMonteCarlo, rep.DevAnalytic)
	}
	if !strings.Contains(rep.Render(), "Monte-Carlo") {
		t.Error("render incomplete")
	}
}
