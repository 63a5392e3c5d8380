package fvsst

import (
	"slices"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// TestPassDegenerate states the pass's edge rules once, where they live:
// idle → the minimum setting, no usable window → f_max, neither has a
// prediction (so Step 2 takes them first, at zero loss); a one-point table
// leaves nothing to choose; a budget below the floor is reported unmet with
// the honest table power, never papered over.
func TestPassDegenerate(t *testing.T) {
	const (
		idle = iota
		unobserved
		observed
	)
	table1 := power.PaperTable1()
	top := table1.Len() - 1
	onePoint := power.MustTable([]power.OperatingPoint{
		{F: units.MHz(1000), V: units.Volts(1.2), P: units.Watts(40)},
	})
	cpuBound := perfmodel.Decomposition{InvAlpha: 1 / 1.4, StallSecPerInstr: 0.1e-9}

	for _, tc := range []struct {
		name        string
		table       *power.Table
		marks       []int
		budget      units.Power
		wantDesired []int
		wantActual  []int
		wantMet     bool
		wantDemoted int
	}{
		{"all idle", table1, []int{idle, idle, idle}, units.Watts(1000),
			[]int{0, 0, 0}, []int{0, 0, 0}, true, 0},
		{"all idle, infeasible", table1, []int{idle, idle, idle}, units.Watts(20),
			[]int{0, 0, 0}, []int{0, 0, 0}, false, 0},
		{"all unobserved", table1, []int{unobserved, unobserved, unobserved}, units.Watts(1000),
			[]int{top, top, top}, []int{top, top, top}, true, 0},
		// 3×140 W against 400 W: equal (zero) losses go to the higher
		// index, then the lower CPU — 403 W after cpu 0, 386 W after cpu 1.
		{"all unobserved, tight", table1, []int{unobserved, unobserved, unobserved}, units.Watts(400),
			[]int{top, top, top}, []int{top - 1, top - 1, top}, true, 2},
		{"mixed, infeasible", table1, []int{observed, idle, unobserved}, units.Watts(1),
			[]int{top, 0, top}, []int{0, 0, 0}, false, 2 * top},
		{"single frequency", onePoint, []int{observed, idle, unobserved}, units.Watts(1000),
			[]int{0, 0, 0}, []int{0, 0, 0}, true, 0},
		{"single frequency, infeasible", onePoint, []int{observed}, units.Watts(10),
			[]int{0}, []int{0}, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPass(Config{Table: tc.table, Epsilon: 0.01})
			p.Begin(len(tc.marks))
			for i, m := range tc.marks {
				switch m {
				case idle:
					p.Idle(i)
				case unobserved:
					p.Unobserved(i)
				default:
					if err := p.Observe(i, cpuBound); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := p.Desired(); !slices.Equal(got, tc.wantDesired) {
				t.Fatalf("desired %v, want %v", got, tc.wantDesired)
			}
			if met := p.Fit(tc.budget); met != tc.wantMet {
				t.Fatalf("met = %v, want %v", met, tc.wantMet)
			}
			if got := p.Actual(); !slices.Equal(got, tc.wantActual) {
				t.Fatalf("actual %v, want %v", got, tc.wantActual)
			}
			if got := len(p.Demotions()); got != tc.wantDemoted {
				t.Fatalf("%d demotions, want %d: %v", got, tc.wantDemoted, p.Demotions())
			}
			var sum units.Power
			for i, m := range tc.marks {
				k := tc.wantActual[i]
				sum += tc.table.PowerAtIndex(k)
				if v := p.Voltage(i); v != tc.table.VoltageAtIndex(k) {
					t.Errorf("cpu %d voltage %v, want %v", i, v, tc.table.VoltageAtIndex(k))
				}
				loss, ipc, ok := p.Predicted(i)
				if ok != (m == observed) {
					t.Errorf("cpu %d predicted=%v", i, ok)
				}
				if !ok && (loss != 0 || ipc != 0) {
					t.Errorf("cpu %d has no prediction yet reads loss %v, IPC %v", i, loss, ipc)
				}
				if ok && k == tc.table.Len()-1 && loss != 0 {
					t.Errorf("cpu %d predicted loss %v at f_max, want exactly 0", i, loss)
				}
			}
			if got := p.TablePower(); got != sum {
				t.Errorf("table power %v, want %v", got, sum)
			}
			if (p.Finish() != PassTimings{}) {
				t.Error("timings reported with timing off")
			}
		})
	}
}
