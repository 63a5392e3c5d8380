package cluster

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestHeterogeneousNodeSizes checks the coordinator handles nodes with
// different processor counts — a 2-way and a 4-way box in one cluster —
// flattening them into a single global schedule.
func TestHeterogeneousNodeSizes(t *testing.T) {
	mk := func(name string, cpus int, seed int64) *Node {
		cfg := quietMachineConfig()
		cfg.NumCPUs = cpus
		cfg.Seed = seed
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mix, err := workload.NewMix(memProg(1e12))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMix(0, mix); err != nil {
			t.Fatal(err)
		}
		return &Node{Name: name, M: m}
	}
	c, err := New(clusterConfig(), units.Watts(400), mk("small", 2, 1), mk("big", 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := runUntil(c, 0.8); err != nil {
		t.Fatal(err)
	}
	decs := c.Decisions()
	if len(decs) == 0 {
		t.Fatal("no decisions")
	}
	last := decs[len(decs)-1]
	if len(last.Assignments) != 6 {
		t.Fatalf("assignments = %d, want 6 (2+4)", len(last.Assignments))
	}
	if last.TablePower > units.Watts(400) {
		t.Errorf("table power %v over global budget", last.TablePower)
	}
	// The two memory-bound busy CPUs (cpu0 of each node) end in the
	// saturation band; all idle CPUs are at the floor.
	for _, a := range last.Assignments {
		if a.Proc.CPU == 0 {
			if a.Actual < units.MHz(600) || a.Actual > units.MHz(750) {
				t.Errorf("node %d busy CPU at %v", a.Proc.Node, a.Actual)
			}
		} else if a.Actual != units.MHz(250) {
			t.Errorf("node %d idle CPU %d at %v, want floor", a.Proc.Node, a.Proc.CPU, a.Actual)
		}
	}
}

// TestLargerClusterScales runs eight nodes (32 processors) under one
// budget and checks the schedule remains globally consistent.
func TestLargerClusterScales(t *testing.T) {
	var nodes []*Node
	for i := 0; i < 8; i++ {
		cfg := quietMachineConfig()
		cfg.Seed = int64(i + 1)
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prog := memProg(1e12)
		if i%2 == 0 {
			prog = cpuProg(1e12)
		}
		mix, err := workload.NewMix(prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMix(0, mix); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &Node{Name: string(rune('a' + i)), M: m})
	}
	// 32 CPUs; busy ones are 8. Budget forces real choices: floor for the
	// 24 idle (24×9=216W) + meaningful splits for the busy ones.
	c, err := New(clusterConfig(), units.Watts(900), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	if err := runUntil(c, 1.0); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalCPUPower(); got > units.Watts(910) {
		t.Errorf("cluster power %v over budget", got)
	}
	decs := c.Decisions()
	last := decs[len(decs)-1]
	if len(last.Assignments) != 32 {
		t.Fatalf("assignments = %d", len(last.Assignments))
	}
	// CPU-bound nodes keep more frequency than memory-bound ones.
	var cpuSum, memSum float64
	for _, a := range last.Assignments {
		if a.Proc.CPU != 0 {
			continue
		}
		if a.Proc.Node%2 == 0 {
			cpuSum += a.Actual.MHz()
		} else {
			memSum += a.Actual.MHz()
		}
	}
	if cpuSum <= memSum {
		t.Errorf("diversity not exploited at scale: cpu tiers %.0f ≤ mem tiers %.0f", cpuSum, memSum)
	}
}
