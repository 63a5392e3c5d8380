package netcluster

import (
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netcluster/faultnet"
	"repro/internal/netcluster/wire"
	"repro/internal/units"
)

// startFleet spins up n agents with deterministic seeds so a second
// fleet built from the same base seed behaves identically.
func startFleet(t *testing.T, n int, baseSeed int64) []*Agent {
	t.Helper()
	agents := make([]*Agent, n)
	for i := range agents {
		agents[i], _ = startAgent(t, nodeName(i), baseSeed+int64(i), 0, nil)
	}
	return agents
}

func nodeName(i int) string { return "n" + strconv.Itoa(i) }

// startTree builds a two-level tree over the agents through NewFleet:
// fanout children per relay (fanout must divide the fleet, so the
// builder's contiguous groups are the same), each relay owning a
// connected sub-coordinator, plus a Root over the relays.
func startTree(t *testing.T, agents []*Agent, fanout int, rootCfg Config) (*Root, []*Relay) {
	t.Helper()
	if len(agents)%fanout != 0 {
		t.Fatalf("fanout %d does not divide %d agents", fanout, len(agents))
	}
	specs := make([]NodeSpec, len(agents))
	for i, a := range agents {
		specs[i] = NodeSpec{Name: nodeName(i), Addr: a.Addr()}
	}
	f, err := NewFleet(specs, len(agents)/fanout, nil, func(name string, group int) Config {
		if group < 0 {
			return rootCfg
		}
		// The relays keep the root's deadlines and retries, so the root
		// deadline NewFleet derives from them stays test-sized.
		sub := rootCfg
		sub.Name, sub.Seed = name, rootCfg.Seed+int64(100+group)
		sub.Source, sub.Dialer, sub.Sink, sub.Metrics, sub.WireStats = nil, nil, nil, nil, nil
		return sub
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f.root, f.relays
}

// TestRelayTreeMatchesFlat is the tentpole differential: a fault-free
// two-level tree must schedule every processor byte-identically to one
// flat coordinator over an identical fleet, and the relays' per-node
// charges must replay the flat ledger's float accumulation exactly.
func TestRelayTreeMatchesFlat(t *testing.T) {
	const n, fanout, rounds = 4, 2, 6
	budget := units.Watts(600) // tight enough to force Step-2 demotions

	flatAgents := startFleet(t, n, 1)
	var flatSpecs []NodeSpec
	for i, a := range flatAgents {
		flatSpecs = append(flatSpecs, NodeSpec{Name: nodeName(i), Addr: a.Addr()})
	}
	flat, err := NewCoordinator(Config{Fvsst: testFvsst(), Budget: budget, Seed: 42}, flatSpecs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Connect(); err != nil {
		t.Fatal(err)
	}
	defer flat.Close()

	treeAgents := startFleet(t, n, 1)
	st := &wire.Stats{}
	root, relays := startTree(t, treeAgents, fanout, Config{
		Name:   "root",
		Fvsst:  testFvsst(),
		Budget: budget,
		Seed:   42,
		Dialer: TCPDialer{Stats: st},
	})

	for i := 0; i < rounds; i++ {
		if err := flat.RunRound(); err != nil {
			t.Fatal(err)
		}
		if err := root.RunRound(); err != nil {
			t.Fatal(err)
		}
	}

	flatDecs := flat.Decisions()
	rootDecs := root.RootDecisions()
	if len(flatDecs) != rounds || len(rootDecs) != rounds {
		t.Fatalf("%d flat / %d root decisions, want %d", len(flatDecs), len(rootDecs), rounds)
	}
	var relayDecs [][]Decision
	for _, r := range relays {
		decs := r.Coordinator().Decisions()
		if len(decs) != rounds {
			t.Fatalf("relay has %d decisions, want %d", len(decs), rounds)
		}
		relayDecs = append(relayDecs, decs)
	}

	for k := 0; k < rounds; k++ {
		fd := flatDecs[k]
		rd := rootDecs[k]
		if !rd.BudgetMet || rd.Charged > rd.Budget {
			t.Errorf("round %d: root charged %v against %v", k, rd.Charged, rd.Budget)
		}
		if !rd.DivideMet {
			t.Errorf("round %d: division did not meet the live budget", k)
		}
		if rd.PassDur <= 0 {
			t.Errorf("round %d: no pass latency recorded", k)
		}
		if rd.At != fd.At {
			t.Errorf("round %d: root epoch %v, flat %v", k, rd.At, fd.At)
		}

		// Assignments: concatenate the relays' subtree schedules in
		// global node order and compare every field bit for bit.
		var tree []cluster.Assignment
		nodeOff := 0
		for _, decs := range relayDecs {
			for _, a := range decs[k].Assignments {
				a.Proc.Node += nodeOff
				tree = append(tree, a)
			}
			nodeOff += len(decs[k].NodeCharged)
		}
		if len(tree) != len(fd.Assignments) {
			t.Fatalf("round %d: %d tree assignments, flat %d", k, len(tree), len(fd.Assignments))
		}
		for i := range tree {
			if tree[i] != fd.Assignments[i] {
				t.Errorf("round %d assignment %d: tree %+v, flat %+v", k, i, tree[i], fd.Assignments[i])
			}
		}

		// Ledger: summing the relays' per-node charges in global node
		// order reproduces the flat charge exactly (same accumulation
		// order, same table arithmetic).
		var charged units.Power
		for _, decs := range relayDecs {
			for _, w := range decs[k].NodeCharged {
				charged += w
			}
		}
		if charged != fd.Charged {
			t.Errorf("round %d: tree ledger %v, flat %v", k, charged, fd.Charged)
		}
	}

	snap := st.Snapshot()
	if snap.BinFramesOut == 0 || snap.BinFramesIn == 0 {
		t.Errorf("root negotiated no binary frames: %+v", snap)
	}
	// Counter traffic between relays and leaves went delta after the
	// first report per node.
	if snap.DeltaIn != 0 {
		t.Errorf("root saw %d delta counter reports; demand reports are never delta-encoded", snap.DeltaIn)
	}
}

// TestRelayPartitionBudgetSafety drives a tree through a root↔relay
// partition: the silent relay must be charged its last acknowledged
// subtree ledger (the frozen-subtree bound), the root must stay within
// budget throughout, and the relay must rejoin cleanly after healing.
func TestRelayPartitionBudgetSafety(t *testing.T) {
	const n, fanout = 4, 2
	budget := units.Watts(900)
	agents := startFleet(t, n, 11)
	fabric := faultnet.New(7)
	cfg := Config{
		Name:   "root",
		Fvsst:  testFvsst(),
		Budget: budget,
		MissK:  2,
		Seed:   7,
		Dialer: fabric,
	}
	fastRetry(&cfg)
	root, _ := startTree(t, agents, fanout, cfg)

	run := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if err := root.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(2) // healthy
	preCut := root.RootDecisions()[1]
	fabric.Partition("relay1")
	run(3) // misses accumulate past MissK
	fabric.Heal("relay1")
	run(2) // rejoin

	decs := root.RootDecisions()
	if len(decs) != 7 {
		t.Fatalf("%d decisions", len(decs))
	}
	sawDegraded := false
	for k, d := range decs {
		if d.Charged > d.Budget {
			t.Errorf("round %d: charged %v over budget %v (reserved %v)", k, d.Charged, d.Budget, d.Reserved)
		}
		if len(d.Degraded) > 0 {
			sawDegraded = true
			if d.Degraded[0] != "relay1" {
				t.Errorf("round %d: degraded %v, want relay1", k, d.Degraded)
			}
		}
	}
	if !sawDegraded {
		t.Fatal("partition never degraded the relay")
	}
	// During the cut the silent subtree is held at exactly its last
	// acknowledged charge — not the (much larger) all-CPUs-at-max bound.
	for k := 2; k < 5; k++ {
		g := decs[k].Grants[1]
		if g.Acked {
			t.Fatalf("round %d: partitioned relay acked a grant", k)
		}
		if g.Charged != preCut.Grants[1].Charged {
			t.Errorf("round %d: silent relay charged %v, want frozen %v", k, g.Charged, preCut.Grants[1].Charged)
		}
	}
	// After healing, grants flow again.
	last := decs[6]
	if !last.Grants[1].Acked || !last.BudgetMet {
		t.Errorf("relay did not rejoin cleanly: %+v", last.Grants[1])
	}
}
