package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestFarmLoopsGolden pins the three in-process farm loops against one
// committed file: the farm-powerfail and serve-hotspot renders at test
// scale and the RunFarm pass-history hash for generated seeds 1..30. The
// bench digests cover scale 1 and the soak ring only, and the
// *Deterministic tests compare a run with itself, so this is the only
// check that fails when all three loops drift together.
func TestFarmLoopsGolden(t *testing.T) {
	var b strings.Builder
	pf, err := FarmPowerFail(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("== farm-powerfail ==\n" + pf.Render())
	hs, err := ServeHotspot(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("== serve-hotspot ==\n" + hs.Render())
	b.WriteString("== RunFarm(GenerateFarm(seed)).Hash ==\n")
	for seed := int64(1); seed <= 30; seed++ {
		r, err := scenario.RunFarm(scenario.GenerateFarm(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&b, "%d %s\n", seed, r.Hash)
	}

	want, err := os.ReadFile(filepath.Join("testdata", "farm_loops.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("farm loops differ from testdata/farm_loops.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
