package scenario

import (
	"strings"
	"testing"
)

func TestHelperFunctions(t *testing.T) {
	if round1(1.26) != 1.3 || round3(0.12345) != 0.123 {
		t.Error("rounding")
	}
}

func TestRenderOneMissingRound(t *testing.T) {
	if got := renderOne(nil, 2); !strings.Contains(got, "<missing>") {
		t.Fatalf("renderOne(nil) = %q", got)
	}
}

func TestDropNodeRewiresWindows(t *testing.T) {
	s := Generate(1)
	s.Nodes = []NodeSpec{
		{CPUs: []CPUSpec{{Kind: IdleCPU}}},
		{CPUs: []CPUSpec{{Kind: IdleCPU}}},
		{CPUs: []CPUSpec{{Kind: IdleCPU}}},
	}
	s.Partitions = []Window{{Node: 0, From: 1, To: 2}, {Node: 1, From: 1, To: 2}, {Node: 2, From: 1, To: 2}}
	s.Policies = []PolicyWindow{{Node: 0, From: 1, To: 2, Drop: 0.1}, {Node: 2, From: 1, To: 2, Drop: 0.1}}
	c := dropNode(s, 1)
	if len(c.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	if len(c.Partitions) != 2 || c.Partitions[0].Node != 0 || c.Partitions[1].Node != 1 {
		t.Fatalf("partitions not rewired: %+v", c.Partitions)
	}
	if len(c.Policies) != 2 || c.Policies[1].Node != 1 {
		t.Fatalf("policies not rewired: %+v", c.Policies)
	}
}

func TestTruncateRoundsDropsOutOfRange(t *testing.T) {
	s := Generate(1)
	s.Rounds = 10
	s.Events = []BudgetEvent{{Round: 2, Watts: 100}, {Round: 9, Watts: 100}}
	s.Partitions = []Window{{Node: 0, From: 1, To: 9}, {Node: 0, From: 6, To: 8}}
	s.Policies = []PolicyWindow{{Node: 0, From: 7, To: 9, Drop: 0.1}}
	s.UPS = &UPSSpec{FailRound: 6, CapacityJ: 100, RunwaySec: 2}
	c := truncateRounds(s, 5)
	if c.Rounds != 5 {
		t.Fatalf("rounds = %d", c.Rounds)
	}
	if len(c.Events) != 1 || c.Events[0].Round != 2 {
		t.Fatalf("events = %+v", c.Events)
	}
	if len(c.Partitions) != 1 || c.Partitions[0].To != 5 {
		t.Fatalf("partitions = %+v", c.Partitions)
	}
	if len(c.Policies) != 0 {
		t.Fatalf("policies = %+v", c.Policies)
	}
	if c.UPS != nil {
		t.Fatal("UPS past the end survived truncation")
	}
}
