package fvsst

import (
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// TestDebounceStreakSurvivesStep2Demotion pins the interaction between the
// debounce filter and Step 2's forced demotions: when a tight budget holds
// CPUs far below their ε-constrained frequency pass after pass, the filter
// must keep its bookkeeping on the *desire* — lastDesired records Step 1's
// choice, never the demoted actual, and the streak matures monotonically —
// so that the moment the budget recovers, a matured desire actuates in one
// pass. If a demotion leaked into the filter, lastDesired would equal the
// forced low frequency, the streak would churn, and recovery would stay
// pinned at the demoted setting for k more passes.
func TestDebounceStreakSurvivesStep2Demotion(t *testing.T) {
	m := quietMachine(t)
	for cpu := 0; cpu < 4; cpu++ {
		mix, err := workload.NewMix(cpuProgram("cpu", 1e15))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMix(cpu, mix); err != nil {
			t.Fatal(err)
		}
	}
	cfg := noOverheadConfig()
	cfg.debouncePasses = 3
	s, err := New(cfg, m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumCPUs()

	pass := func() Decision {
		t.Helper()
		for {
			m.Step()
			due, err := s.Collect()
			if err != nil {
				t.Fatal(err)
			}
			if due {
				d, err := s.Schedule("timer")
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
		}
	}
	top := s.set[len(s.set)-1]

	// Warm pass at a generous budget: pure-CPU work desires the top
	// frequency, the machine already runs there, so the filter primes on
	// top with no holding and no demotions.
	warm := pass()
	for cpu, a := range warm.Assignments {
		if a.Desired != top || a.Actual != top {
			t.Fatalf("warm pass cpu %d: desired %v actual %v, want %v on both", cpu, a.Desired, a.Actual, top)
		}
	}

	// Drop the budget so Step 2 must demote every CPU below its desire.
	if err := s.SetBudget(units.Watts(100)); err != nil {
		t.Fatal(err)
	}
	if d := pass(); len(d.Demotions) == 0 {
		t.Fatal("100 W budget produced no Step-2 demotions")
	}

	// Held passes: the CPUs run demoted while desiring far higher. The
	// filter must track the desire and mature the streak monotonically.
	prevStreak := make([]int, n)
	prevDesire := make([]units.Frequency, n)
	copy(prevStreak, s.desireStreak)
	copy(prevDesire, s.lastDesired)
	for i := 0; i < 3; i++ {
		d := pass()
		for cpu := 0; cpu < n; cpu++ {
			actual := d.Assignments[cpu].Actual
			if actual >= top {
				t.Fatalf("held pass %d cpu %d: actual %v not demoted under 100 W", i, cpu, actual)
			}
			// The forced actual must never leak into the filter state.
			if s.lastDesired[cpu] <= actual {
				t.Fatalf("held pass %d cpu %d: lastDesired %v ≤ demoted actual %v (Step-2 demotion corrupted the debounce filter)",
					i, cpu, s.lastDesired[cpu], actual)
			}
			// Streak bookkeeping: +1 on a stable desire, reset to 1 on a
			// genuine Step-1 change — never reset by the demotion itself.
			if s.lastDesired[cpu] == prevDesire[cpu] {
				if s.desireStreak[cpu] != prevStreak[cpu]+1 {
					t.Fatalf("held pass %d cpu %d: stable desire %v but streak %d → %d",
						i, cpu, prevDesire[cpu], prevStreak[cpu], s.desireStreak[cpu])
				}
			} else if s.desireStreak[cpu] != 1 {
				t.Fatalf("held pass %d cpu %d: desire changed %v → %v but streak %d not reset",
					i, cpu, prevDesire[cpu], s.lastDesired[cpu], s.desireStreak[cpu])
			}
		}
		copy(prevStreak, s.desireStreak)
		copy(prevDesire, s.lastDesired)
	}
	for cpu := 0; cpu < n; cpu++ {
		if s.desireStreak[cpu] < cfg.debouncePasses {
			t.Errorf("cpu %d: desire streak %d never matured past k=%d under sustained demotion",
				cpu, s.desireStreak[cpu], cfg.debouncePasses)
		}
	}

	// Budget recovery: every streak is mature, so the very next pass must
	// actuate each CPU's standing desire — no residual held-down state.
	matured := make([]units.Frequency, n)
	copy(matured, s.lastDesired)
	if err := s.SetBudget(units.Watts(560)); err != nil {
		t.Fatal(err)
	}
	rec := pass()
	for cpu, a := range rec.Assignments {
		if a.Actual != matured[cpu] {
			t.Errorf("cpu %d: recovered to %v, want the matured desire %v in one pass", cpu, a.Actual, matured[cpu])
		}
	}
}
