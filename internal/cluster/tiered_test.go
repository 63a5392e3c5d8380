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
	// Deadline path of RunUntilAllDone.
	done, err := c.RunUntilAllDone(0.05)
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
