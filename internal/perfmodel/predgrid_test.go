package perfmodel

import (
	"testing"

	"repro/internal/units"
)

func gridSet(t *testing.T) units.FrequencySet {
	t.Helper()
	return units.MustFrequencySet(units.MHz(250), units.MHz(500), units.MHz(750), units.MHz(1000))
}

// TestPredGridMatchesDecomposition asserts the grid is a pure cache: every
// cell equals the direct Decomposition computation bit-for-bit.
func TestPredGridMatchesDecomposition(t *testing.T) {
	set := gridSet(t)
	decs := []Decomposition{
		{InvAlpha: 1 / 1.4},                         // CPU-bound
		{InvAlpha: 1 / 1.1, StallSecPerInstr: 8e-9}, // memory-bound
		{InvAlpha: 1 / MaxAlpha, StallSecPerInstr: 2e-9},
	}
	var g PredGrid
	g.Reset(len(decs), set)
	for cpu, d := range decs {
		g.Fill(cpu, d)
	}
	fMax := set.Max()
	for cpu, d := range decs {
		if !g.Valid(cpu) {
			t.Fatalf("cpu %d not valid after Fill", cpu)
		}
		for fi, f := range set {
			if got, want := g.IPC(cpu, fi), d.IPCAt(f); got != want {
				t.Errorf("cpu %d IPC(%v): grid %v direct %v", cpu, f, got, want)
			}
			if got, want := g.Loss(cpu, fi), d.PerfLoss(fMax, f); got != want {
				t.Errorf("cpu %d Loss(%v): grid %v direct %v", cpu, f, got, want)
			}
		}
	}
	if g.NumFreqs() != 4 {
		t.Fatalf("%d frequencies per row, want 4", g.NumFreqs())
	}
	if g.Freq(0) != set[0] || g.Freq(3) != set.Max() {
		t.Fatal("Freq accessor disagrees with set order")
	}
}

// TestPredGridResetInvalidatesAndReuses asserts Reset clears validity and,
// for an unchanged shape, performs no new allocation.
func TestPredGridResetInvalidatesAndReuses(t *testing.T) {
	set := gridSet(t)
	var g PredGrid
	g.Reset(2, set)
	g.Fill(0, Decomposition{InvAlpha: 0.5})
	g.Reset(2, set)
	if g.Valid(0) || g.Valid(1) {
		t.Fatal("rows valid after Reset")
	}
	allocs := testing.AllocsPerRun(100, func() {
		g.Reset(2, set)
		g.Fill(0, Decomposition{InvAlpha: 0.5, StallSecPerInstr: 1e-9})
		g.Fill(1, Decomposition{InvAlpha: 0.25})
		_ = g.Loss(1, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reset+Fill allocates %v per pass, want 0", allocs)
	}
}

// TestPredGridGrowsForLargerPass asserts a larger CPU count after Reset is
// handled by growing the backing arrays.
func TestPredGridGrowsForLargerPass(t *testing.T) {
	set := gridSet(t)
	var g PredGrid
	g.Reset(1, set)
	g.Fill(0, Decomposition{InvAlpha: 0.5})
	g.Reset(8, set)
	for cpu := 0; cpu < 8; cpu++ {
		g.Fill(cpu, Decomposition{InvAlpha: 0.5})
		if g.Loss(cpu, len(set)-1) != 0 {
			t.Fatalf("cpu %d loss at f_max %v, want 0", cpu, g.Loss(cpu, len(set)-1))
		}
	}
}
