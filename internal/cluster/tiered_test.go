package cluster

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestNewTieredNodeWrapsProgramsRoundRobin(t *testing.T) {
	// Six programs on a 4-CPU node: CPUs 0 and 1 get two jobs each.
	var progs []workload.Program
	for i := 0; i < 6; i++ {
		progs = append(progs, cpuProg(1e9))
	}
	n, err := NewTieredNode(quietMachineConfig(), TierSpec{
		Name: "dense", Programs: progs,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJobs := []int{2, 2, 1, 1}
	for cpu, want := range wantJobs {
		mix := n.M.Mix(cpu)
		if mix == nil {
			t.Fatalf("cpu %d has no mix", cpu)
		}
		if got := len(mix.Jobs()); got != want {
			t.Errorf("cpu %d jobs = %d, want %d", cpu, got, want)
		}
	}
}

func TestNewTieredNodeRejectsBadProgram(t *testing.T) {
	_, err := NewTieredNode(quietMachineConfig(), TierSpec{
		Name: "bad", Programs: []workload.Program{{}},
	})
	if err == nil {
		t.Error("invalid program accepted")
	}
}

// TestInvalidProgramErrorsOnEveryMixPath feeds a zero-phase program and an
// α = 0 program through every public way into a mix. Each must return an
// error: a cursor entering the first phase would index a phase that is not
// there, or cache an infinite core CPI.
func TestInvalidProgramErrorsOnEveryMixPath(t *testing.T) {
	bad := []workload.Program{
		{Name: "no-phases"},
		{Name: "alpha-0", Phases: []workload.Phase{{Name: "p", Alpha: 0, Instructions: 1}}},
	}
	paths := []struct {
		name string
		add  func(*testing.T, workload.Program) error
	}{
		{"NewMix", func(t *testing.T, p workload.Program) error {
			_, err := workload.NewMix(cpuProg(1e6), p)
			return err
		}},
		{"Mix.Add/new cursor", func(t *testing.T, p workload.Program) error {
			mix, err := workload.NewMix(cpuProg(1e6))
			if err != nil {
				t.Fatal(err)
			}
			return mix.Add(p)
		}},
		{"Mix.Add/rebound cursor", func(t *testing.T, p workload.Program) error {
			mix, err := workload.NewMix(cpuProg(10), cpuProg(1e6))
			if err != nil {
				t.Fatal(err)
			}
			// The first job finishes, so Add rebinds its cursor.
			mix.PickNext().Advance(10)
			return mix.Add(p)
		}},
		{"Machine.Submit", func(t *testing.T, p workload.Program) error {
			m, err := machine.New(quietMachineConfig())
			if err != nil {
				t.Fatal(err)
			}
			return m.Submit(workload.Schedule{{At: 0.5, CPU: 1, Program: p}})
		}},
		{"NewTieredNode/first program", func(t *testing.T, p workload.Program) error {
			_, err := NewTieredNode(quietMachineConfig(), TierSpec{Name: "t", Programs: []workload.Program{p}})
			return err
		}},
		{"NewTieredNode/existing mix", func(t *testing.T, p workload.Program) error {
			progs := []workload.Program{cpuProg(1e6), cpuProg(1e6), cpuProg(1e6), cpuProg(1e6), p}
			_, err := NewTieredNode(quietMachineConfig(), TierSpec{Name: "t", Programs: progs})
			return err
		}},
	}
	for _, path := range paths {
		for _, p := range bad {
			t.Run(path.name+"/"+p.Name, func(t *testing.T) {
				if err := path.add(t, p); err == nil {
					t.Errorf("%s accepted %s", path.name, p.Name)
				}
			})
		}
	}
}

func TestCoordinatorAccessors(t *testing.T) {
	m, err := machine.New(quietMachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	mix, _ := workload.NewMix(cpuProg(5e8))
	m.SetMix(0, mix)
	c, err := New(clusterConfig(), units.Watts(700), &Node{Name: "n", M: m})
	if err != nil {
		t.Fatal(err)
	}
	if c.Now() != 0 {
		t.Errorf("fresh Now = %v", c.Now())
	}
	if c.Budget().W() != 700 {
		t.Errorf("Budget = %v", c.Budget())
	}
	if len(c.Nodes()) != 1 {
		t.Errorf("Nodes = %d", len(c.Nodes()))
	}
	// A run cut at its deadline.
	done, err := runUntilDone(c, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Error("0.5 Ginstr cannot finish in 50 ms")
	}
	if c.Now() < 0.05 {
		t.Errorf("Now = %v after deadline run", c.Now())
	}
}
