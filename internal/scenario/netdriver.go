package scenario

import (
	"fmt"
	"time"

	"repro/internal/invariant"
	"repro/internal/netcluster"
	"repro/internal/netcluster/faultnet"
	"repro/internal/units"
)

// netRPCTimeout bounds each RPC attempt of the loopback netcluster
// driver; a partitioned node costs about one timeout per round.
const netRPCTimeout = 150 * time.Millisecond

// RunNet runs the scenario through the real networked stack: one TCP
// agent per node on loopback, connected through a seeded faultnet that
// applies the spec's partitions and message-fault policies at round
// boundaries, driven by the production netcluster.Coordinator over the
// connection and codec every binary dials (wire.Conn, bin1 hot frames). The
// returned trace has the same canonical shape as RunCluster's; every
// round's ledger runs under the invariant checks.
//
// The networked driver does not model UPS drain (the coordinator samples
// a budget source; nothing in the transport integrates battery energy),
// so specs with a UPS must be stripped with WithoutUPS first.
func RunNet(spec Spec) (*RunResult, error) {
	return runNet(spec, 0, "")
}

// RunRelayNet runs the scenario through the hierarchical networked
// stack: the nodes split into two contiguous groups (one for a one-node
// spec), each behind a netcluster.Relay (agent protocol upward,
// coordinator protocol downward), driven by one netcluster.Root that
// divides the global budget across the relays' aggregated demand curves.
// The returned trace has the same canonical shape as RunNet's,
// reassembled from the relays' per-node decisions in global node order —
// on a fault-free spec it is byte-identical to the flat driver's.
//
// Fault injection (partitions, message-fault policies) applies on the
// relay→leaf links through one seeded faultnet per relay; root↔relay
// links are never faulted by this driver, and NewFleet makes the root's
// per-attempt deadline cover the relay tier's worst-case phase, so every
// round settles exactly one decision per relay and the logs stay aligned.
func RunRelayNet(spec Spec) (*RunResult, error) {
	return runNet(spec, min(2, len(spec.Nodes)), "")
}

// runNet drives the scenario through a loopback netcluster.Fleet: flat
// when nRelays is 0, a 2-level tree otherwise. A flat coordinator is the
// one-leaf case of the tree's trace reassembly. codec is every tier's
// netcluster.Config.Codec: "" (bin1 hot frames) for everything that ships,
// "json" for runCodecDifferential's oracle arm.
func runNet(spec Spec, nRelays int, codec string) (*RunResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.UPS != nil {
		return nil, fmt.Errorf("scenario: networked driver does not model UPS drain; use Spec.WithoutUPS")
	}
	fcfg, err := spec.fvsstConfig()
	if err != nil {
		return nil, err
	}
	source, _, err := spec.source()
	if err != nil {
		return nil, err
	}

	agents := make([]*netcluster.Agent, len(spec.Nodes))
	specs := make([]netcluster.NodeSpec, len(spec.Nodes))
	defer func() {
		for _, a := range agents {
			if a != nil {
				a.Close()
			}
		}
	}()
	for i := range spec.Nodes {
		m, err := spec.newMachine(i)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("n%d", i)
		// FailsafeLease stays off: the agent watchdog would floor CPUs
		// mid-partition and the healed node would re-report from a state
		// the budget ledger (which charges the last acknowledged
		// actuation) deliberately does not track.
		a, err := netcluster.NewAgent(netcluster.AgentConfig{Name: name, M: m})
		if err != nil {
			return nil, err
		}
		agents[i] = a
		if specs[i], err = a.Listen(nil); err != nil {
			return nil, err
		}
	}

	// One fault fabric per coordinator that faces agents — the flat one, or
	// each relay's — seeded like it (relay j offset by the group index, the
	// shared seeding convention), so each group's fault streams are
	// independent of the other groups' dial order.
	fabrics := make([]*faultnet.Network, max(nRelays, 1))
	fleet, err := netcluster.NewFleet(specs, nRelays, nil, func(name string, group int) netcluster.Config {
		c := netcluster.Config{
			Name:        name,
			Fvsst:       fcfg,
			Budget:      source.BudgetAt(0),
			MissK:       MissK,
			RPCTimeout:  netRPCTimeout,
			Retries:     1,
			BackoffBase: time.Millisecond,
			BackoffMax:  2 * time.Millisecond,
			Seed:        spec.Seed,
			Codec:       codec,
		}
		if group < 0 {
			c.Source = source
			if nRelays > 0 {
				return c // root↔relay links are never faulted
			}
			group = 0
		} else {
			c.Seed += int64(1000 * (group + 1))
		}
		fabrics[group] = faultnet.New(c.Seed)
		c.Dialer = fabrics[group]
		return c
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	offsets := fleet.Offsets()
	fabricOf := make([]*faultnet.Network, len(spec.Nodes))
	for j, lo := range offsets {
		for i := lo; i < len(fabricOf); i++ {
			fabricOf[i] = fabrics[j]
		}
	}
	res := &RunResult{Rounds: spec.Rounds}
	rounds := make([]netcluster.Round, spec.Rounds)
	for round := range rounds {
		for i := range spec.Nodes {
			name := specs[i].Name
			if spec.partitioned(i, round) {
				fabricOf[i].Partition(name)
			} else {
				fabricOf[i].Heal(name)
			}
			if err := fabricOf[i].SetPolicy(name, policyAt(spec, i, round)); err != nil {
				return nil, err
			}
		}
		if rounds[round], err = fleet.RunRound(); err != nil {
			return nil, err
		}
		res.MaxPassLatencyS = max(res.MaxPassLatencyS, rounds[round].PassDur.Seconds())
	}

	leaves := fleet.Leaves()
	for j, decs := range leaves {
		if len(decs) != spec.Rounds {
			return nil, fmt.Errorf("scenario: relay %d settled %d rounds of %d (root↔relay link faulted?)",
				j, len(decs), spec.Rounds)
		}
	}

	suite := invariant.NewSuite()
	table := fcfg.Table
	floor := table.FrequencyAtIndex(0)
	for round, hdr := range rounds {
		rt := RoundTrace{
			Round:   round,
			At:      hdr.At,
			Trigger: hdr.Trigger,
			BudgetW: hdr.Budget.W(),
		}
		// Reassemble the flat ledger from the leaves' per-node accounts in
		// global node order: the same values in the same accumulation
		// order the flat coordinator uses, so fault-free traces match bit
		// for bit across topologies.
		var live, reserved, charged units.Power
		// The floor side-condition: met=false with a live CPU above the
		// floor is legitimate exactly when some polled node went unacked
		// (it is charged its worst case while its assignment reads
		// above-floor).
		allAtFloor, unacked := true, false
		for j, decs := range leaves {
			d := decs[round]
			for i, w := range d.NodeCharged {
				charged += w
				if !d.Acked[i] {
					reserved += w
				}
			}
			for _, a := range d.Assignments {
				live += table.PowerAtIndex(table.IndexOf(a.Actual))
				if a.Actual != floor {
					allAtFloor = false
				}
				if !d.Acked[a.Proc.Node] {
					unacked = true
				}
				rt.Procs = append(rt.Procs, ProcTrace{
					Node:       fmt.Sprintf("n%d", offsets[j]+a.Proc.Node),
					CPU:        a.Proc.CPU,
					Idle:       a.Idle,
					DesiredMHz: a.Desired.MHz(),
					ActualMHz:  a.Actual.MHz(),
					VoltageV:   a.Voltage.V(),
				})
			}
			rt.Degraded = append(rt.Degraded, d.Degraded...)
		}
		rt.LiveW = live.W()
		rt.ReservedW = reserved.W()
		rt.ChargedW = charged.W()
		rt.Met = charged <= hdr.Budget
		res.Trace = append(res.Trace, rt)
		suite.Report(invariant.CheckLedger(invariant.Ledger{
			At:             hdr.At,
			Budget:         hdr.Budget,
			Live:           charged - reserved,
			Reserved:       reserved,
			Charged:        charged,
			Met:            rt.Met,
			AllLiveAtFloor: allAtFloor || unacked,
		})...)
	}
	finishResult(res, suite)
	return res, nil
}

// policyAt returns the faultnet policy in force for node i at the round
// (the zero Policy when none).
func policyAt(spec Spec, node, round int) faultnet.Policy {
	for _, p := range spec.Policies {
		if p.Node == node && round >= p.From && round < p.To {
			return faultnet.Policy{
				DropProb: p.Drop,
				DupProb:  p.Dup,
				Delay:    time.Duration(p.DelayUS) * time.Microsecond,
			}
		}
	}
	return faultnet.Policy{}
}
