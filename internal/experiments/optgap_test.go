package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestOptGapCampaign: the exact comparator runs across a seed corpus —
// greedy never beats the optimum, the rendering is byte-stable across
// worker counts, and the text gate numbers match the struct.
func TestOptGapCampaign(t *testing.T) {
	cfg := OptGapConfig{Seeds: 6}
	a, err := OptGap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Errors != 0 || a.Violations != 0 {
		t.Fatalf("campaign not clean: %d errors %d violations", a.Errors, a.Violations)
	}
	if a.Total.Passes == 0 {
		t.Fatal("no passes measured across 6 seeds")
	}
	if a.Total.GreedyLoss < a.Total.OptimalLoss-1e-12 {
		t.Fatalf("greedy %v beats optimal %v", a.Total.GreedyLoss, a.Total.OptimalLoss)
	}
	cfg.Parallel = 4
	b, err := OptGap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Seeds, b.Seeds) || !reflect.DeepEqual(a.Total, b.Total) {
		t.Fatal("report differs across worker counts")
	}

	var s1, s2 strings.Builder
	a.WriteText(&s1)
	b.WriteText(&s2)
	if s1.String() != s2.String() {
		t.Fatalf("renderings differ:\n%s\n---\n%s", s1.String(), s2.String())
	}
	if !strings.Contains(s1.String(), "worst gap") {
		t.Fatalf("rendering lacks the summary:\n%s", s1.String())
	}

	// A failed comparator is merged like any other count, keeps its first
	// detail, and gets its own line; a clean campaign renders none.
	if a.Total.Broken != 0 || strings.Contains(s1.String(), "comparator failed") {
		t.Fatalf("clean campaign reports a failed comparator:\n%s", s1.String())
	}
	a.Total.Merge(scenario.OptGapStats{Broken: 2, BrokenDetail: "optimal: dp re-check failed"})
	a.Total.Merge(scenario.OptGapStats{Broken: 1, BrokenDetail: "later"})
	var s3 strings.Builder
	a.WriteText(&s3)
	if want := "total: exact comparator failed on 3 pass(es), first: optimal: dp re-check failed\n"; !strings.Contains(s3.String(), want) {
		t.Fatalf("rendering lacks %q:\n%s", want, s3.String())
	}
}

// TestOptGapMatchesGolden pins `experiments optgap -seeds 60` byte for
// byte, so any drift in the exact comparator's answers fails, not only
// drift between worker counts. Regenerate, after a change meant to move
// it, with
//
//	go run ./cmd/experiments optgap -seeds 60 > internal/experiments/testdata/optgap_seeds60.golden
func TestOptGapMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "optgap_seeds60.golden"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := OptGap(OptGapConfig{Seeds: 60, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	rep.WriteText(&got)
	if got.String() != string(want) {
		t.Fatalf("optgap -seeds 60 differs from testdata/optgap_seeds60.golden:\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}

// TestOptGapRejectsEmpty: a campaign of no seeds measures nothing, so
// it would pass any -max-gap gate vacuously; a negative count is no
// campaign either. Both are errors, not reports (nor a panic).
func TestOptGapRejectsEmpty(t *testing.T) {
	for _, seeds := range []int{0, -1} {
		if rep, err := OptGap(OptGapConfig{Seeds: seeds}); err == nil {
			t.Errorf("optgap of %d seed(s) accepted: %+v", seeds, rep)
		}
	}
}
