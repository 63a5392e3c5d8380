package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/counters"
	"repro/internal/fvsst"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

// syntheticInputs makes n processors' counter windows at 1 GHz, fixed by
// the seed — the fleet bench/probes.go times as cluster.core_schedule_us_*:
// mostly CPU-bound, so Step 1 asks for high frequencies and a tight budget
// leaves Step 2 several demotions per processor to choose.
func syntheticInputs(n int, seed int64) []ProcInput {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]ProcInput, n)
	for i := range inputs {
		const cycles = 100_000_000 // 0.1 s at 1 GHz
		instr := uint64(cycles * (0.3 + 1.1*rng.Float64()))
		memPerInstr := 0.002 * rng.Float64()
		inputs[i] = ProcInput{
			Proc: ProcRef{Node: i / 16, CPU: i % 16},
			Node: fmt.Sprint("n", i/16),
			Obs: &perfmodel.Observation{
				Freq: units.GHz(1),
				Delta: counters.Delta{
					Window: 0.1, Instructions: instr, Cycles: cycles,
					L2Refs:  uint64(float64(instr) * 0.01),
					L3Refs:  uint64(float64(instr) * 0.002),
					MemRefs: uint64(float64(instr) * memPerInstr),
				},
			},
		}
	}
	return inputs
}

// tightBudget is 60 W per CPU of Table 1's 140 W: every pass needs Step 2.
func tightBudget(n int) units.Power { return units.Watts(60 * float64(n)) }

func scaleCore(tb testing.TB) *Core {
	tb.Helper()
	core, err := NewCore(fvsst.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return core
}

// BenchmarkCoreSchedule is one global pass at the two sizes whose ratio
// the bench reports as cluster.core_schedule_scaling (1 is linear).
func BenchmarkCoreSchedule(b *testing.B) {
	for _, n := range []int{64, 2000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			core, inputs, budget := scaleCore(b), syntheticInputs(n, 1), tightBudget(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Schedule(inputs, budget)
				if err != nil || !res.BudgetMet {
					b.Fatalf("pass: met=%v err=%v", res.BudgetMet, err)
				}
			}
		})
	}
}

// TestCoreScheduleAllocsFlat: a warm pass allocates only its returned
// slices, so the allocation count is the same at 64 and at 2000 CPUs —
// the grid, the index scratch, the demotion buffer and the Step-2 heap
// are reused, and nothing allocates per demotion.
func TestCoreScheduleAllocsFlat(t *testing.T) {
	var allocs [2]float64
	for k, n := range []int{64, 2000} {
		core, inputs, budget := scaleCore(t), syntheticInputs(n, 1), tightBudget(n)
		pass := func() {
			res, err := core.Schedule(inputs, budget)
			if err != nil || len(res.Demotions) < n {
				t.Fatalf("%d CPUs: %d demotions, err %v; want Step 2 busy", n, len(res.Demotions), err)
			}
		}
		pass() // warm the scratch
		allocs[k] = testing.AllocsPerRun(100, pass)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("allocations per pass: %v at 64 CPUs, %v at 2000; want equal", allocs[0], allocs[1])
	}
}

// TestCoordinatorRoundAllocsFlat: a warm in-process round reuses the
// coordinator's input and observation buffers and its core's curve
// scratch. DemandCurve allocates nothing, and a timer pass allocates at
// most the Assignments its decision keeps — the same count at 2 nodes as
// at 8.
func TestCoordinatorRoundAllocsFlat(t *testing.T) {
	var passes [2]float64
	for k, nodes := range []int{2, 8} {
		c := newCluster(t, units.Watts(100*float64(nodes)), nodes)
		if err := runUntil(c, 0.5); err != nil {
			t.Fatal(err)
		}
		curve := func() {
			if _, err := c.DemandCurve(); err != nil {
				t.Fatal(err)
			}
		}
		pass := func() {
			c.pending = c.pending[:0] // no Step delivers them here
			if err := c.schedule("timer"); err != nil {
				t.Fatal(err)
			}
		}
		curve() // warm the buffers
		pass()
		if n := testing.AllocsPerRun(50, curve); n != 0 {
			t.Errorf("%d nodes: a warm DemandCurve allocates %v times, want 0", nodes, n)
		}
		passes[k] = testing.AllocsPerRun(50, pass)
	}
	if passes[0] != passes[1] || passes[1] > 2 {
		t.Errorf("allocations per timer pass: %v at 2 nodes, %v at 8; want equal and at most 2", passes[0], passes[1])
	}
}
