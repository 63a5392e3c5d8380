package cluster

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestTieredWrapsProgramsRoundRobin builds the three tiers on 2-CPU
// nodes: a tier's programs go round-robin onto the CPUs, so web's one
// program leaves CPU 1 idle and app and db put two jobs on each CPU.
func TestTieredWrapsProgramsRoundRobin(t *testing.T) {
	mcfg := quietMachineConfig()
	mcfg.NumCPUs = 2
	nodes, err := Tiered(mcfg, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int{"web": {1, 0}, "app": {2, 2}, "db": {2, 2}}
	if len(nodes) != len(want) {
		t.Fatalf("%d nodes, want %d", len(nodes), len(want))
	}
	for _, n := range nodes {
		if n.M.Config().Name != n.Name {
			t.Errorf("node %s runs machine %q", n.Name, n.M.Config().Name)
		}
		for cpu, jobs := range want[n.Name] {
			got := 0
			if mix := n.M.Mix(cpu); mix != nil {
				got = len(mix.Jobs())
			}
			if got != jobs {
				t.Errorf("%s cpu %d jobs = %d, want %d", n.Name, cpu, got, jobs)
			}
		}
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
		{"machine.New/one program", func(t *testing.T, p workload.Program) error {
			_, err := machine.New(quietMachineConfig(), nil, []workload.Program{p})
			return err
		}},
		{"machine.New/two programs on one CPU", func(t *testing.T, p workload.Program) error {
			_, err := machine.New(quietMachineConfig(), []workload.Program{cpuProg(1e6), p})
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
	m, err := machine.New(quietMachineConfig(), []workload.Program{cpuProg(5e8)})
	if err != nil {
		t.Fatal(err)
	}
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
