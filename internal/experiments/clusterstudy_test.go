package experiments

import (
	"strings"
	"testing"
)

func TestClusterStudyShape(t *testing.T) {
	rep, err := ClusterStudy(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PowerOK {
		t.Error("a policy exceeded the global cap")
	}
	// The §4.2 tier claim: the memory-bound db tier is throttled deeper
	// than the CPU-bound app tier under the global fvsst schedule.
	if rep.TierFreqFVSST["db"] >= rep.TierFreqFVSST["app"]-25 {
		t.Errorf("db tier %.0fMHz not clearly below app tier %.0fMHz",
			rep.TierFreqFVSST["db"], rep.TierFreqFVSST["app"])
	}
	// Uniform gives every tier the same frequency by construction.
	if rep.TierFreqUniform["db"] != rep.TierFreqUniform["app"] {
		t.Errorf("uniform tiers differ: %v", rep.TierFreqUniform)
	}
	// fvsst finishes the same work no slower (and typically faster) than
	// the uniform cap under the same budget.
	if rep.MakespanFVSST > rep.MakespanUniform*1.02 {
		t.Errorf("fvsst makespan %.2fs worse than uniform %.2fs",
			rep.MakespanFVSST, rep.MakespanUniform)
	}
	if !strings.Contains(rep.Render(), "makespan") {
		t.Error("render incomplete")
	}
}
