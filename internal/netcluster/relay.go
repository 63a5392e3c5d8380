package netcluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/farm"
	"repro/internal/netcluster/proto"
	"repro/internal/obs"
	"repro/internal/units"
)

// This file is the recursive coordinator tier. A round has one body in
// two halves, Coordinator.pollRound and settleRound. The flat coordinator
// runs them back to back under its own budget. A Relay owns a Coordinator
// over its children (leaf agents or further relays), speaks the agent
// protocol upward and runs the same halves with the wire in between: it
// answers a demand-request with the poll half, collapsing the subtree
// into one aggregated demand curve (cluster.Core's least-loss demotion
// sequence with flat-greedy step keys), and the grant that follows with
// the settle half under the granted budget. A Root divides its budget
// across relay demand curves with farm.DivideLeastLossExact — the same
// greedy, the same stop arithmetic, as one flat fvsst Step-2 pass over
// the union — so a fault-free two-level tree produces byte-identical
// schedules to a flat coordinator over the same nodes; its round is
// relay-shaped but shares the flat round's opening, per-peer fan-out
// (Coordinator.eachNode) and span tree. NewFleet wires either topology.
//
// Budget safety composes up the tree: a relay charges silent children
// their worst case under silence (Coordinator.settleRound), reports that
// reservation upward at demand time, and acknowledges every grant with
// its post-actuation ledger total (GrantAck.ChargedW). The root holds a
// silent relay at its last acknowledged ChargedW — grants are the only
// way subtree settings can rise, so a partitioned subtree is frozen at
// (or below, via agent failsafes) that figure — and a never-granted relay
// at its full subtree worst case.

// RelayConfig parameterises one mid-tier relay.
type RelayConfig struct {
	// Name identifies the relay to its root coordinator.
	Name string
}

// Relay serves a coordinator subtree to an upstream Root. Create with
// NewRelay over a connected Coordinator, then Start (or ServeConn).
type Relay struct {
	server
	coord    *Coordinator
	closeSub sync.Once
	// mu serialises upward requests; see handle.
	mu sync.Mutex
	// pending carries the poll a demand-request performed across to the
	// grant that settles it: the sub-coordinator's own polledRound, which
	// only the next demand overwrites.
	pending *polledRound
}

// NewRelay wraps a connected Coordinator. The Coordinator must have
// completed Connect — the relay advertises its subtree's processor count
// at hello time — and the relay owns its round-driving from then on:
// do not call RunRound on the wrapped Coordinator.
func NewRelay(cfg RelayConfig, coord *Coordinator) (*Relay, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("netcluster: relay needs a name")
	}
	if coord == nil {
		return nil, fmt.Errorf("netcluster: relay %s has no coordinator", cfg.Name)
	}
	for _, ns := range coord.nodes {
		if ns.caps == nil {
			return nil, fmt.Errorf("netcluster: relay %s: child %s never connected; call Connect first",
				cfg.Name, ns.spec.Name)
		}
	}
	r := &Relay{coord: coord}
	r.setup(cfg.Name, r.handle)
	return r, nil
}

// Coordinator exposes the wrapped subtree coordinator, whose Decisions
// log carries the per-child detail (assignments, per-node charges) of
// every grant the relay settled.
func (r *Relay) Coordinator() *Coordinator { return r.coord }

// Close stops serving upward, then tears down the subtree sessions — once:
// a second Close leaves a sub-coordinator that was reconnected alone.
func (r *Relay) Close() error {
	err := r.server.Close()
	r.closeSub.Do(r.coord.Close)
	return err
}

// handle serialises upward requests: the wrapped Coordinator is not
// concurrency-safe, and a round's demand/grant pair must not interleave
// with a redialled connection's handshake.
func (r *Relay) handle(req *proto.Message, out *reply) *proto.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch req.Kind {
	case proto.KindHello:
		return r.handleHello()
	case proto.KindHeartbeat:
		return out.ack(proto.KindHeartbeatAck, r.coord.clock.Now())
	case proto.KindDemandRequest:
		if req.CounterRequest == nil {
			return fail("demand-request without payload")
		}
		return r.handleDemand(req, out)
	case proto.KindGrant:
		if req.Grant == nil {
			return fail("grant without payload")
		}
		return r.handleGrant(req, out)
	default:
		return fail("unknown kind %q", req.Kind)
	}
}

func (r *Relay) handleHello() *proto.Message {
	numCPUs := 0
	for _, ns := range r.coord.nodes {
		numCPUs += ns.caps.NumCPUs
	}
	return helloAck(r.coord.clock.Now(), r.coord.cfg.Fvsst.Table, proto.Capabilities{
		Node:       r.name,
		NumCPUs:    numCPUs,
		QuantumSec: r.coord.quantum,
		Tier:       "relay",
	})
}

// handleDemand is the poll half of a round: poll the subtree (which
// advances every reachable child one scheduling period), export its
// demand curve and Step-1 desire, and hold the poll for the grant. The
// report is the session's: the curve and desire are encoded from the
// core's scratch into it, so a second session's demand cannot change them
// while this reply is still being sent.
func (r *Relay) handleDemand(req *proto.Message, out *reply) *proto.Message {
	cr := *req.CounterRequest
	want := r.coord.cfg.Fvsst.SchedulePeriods
	if cr.AdvanceQuanta != want || cr.WindowQuanta != want {
		return fail("demand advance/window %d/%d differ from relay schedule periods %d",
			cr.AdvanceQuanta, cr.WindowQuanta, want)
	}
	var passID uint64
	if req.Trace != nil {
		passID = req.Trace.PassID
	}
	// Keep the subtree's pass numbering aligned with the root's, so one
	// PassID correlates spans and acks across every tier.
	r.coord.passID = passID

	p := r.coord.pollRound(passID, nil)
	rep := &out.demandRep
	*rep = proto.DemandReport{
		Points:    rep.Points[:0],
		Desired:   rep.Desired[:0],
		Degraded:  rep.Degraded[:0],
		ReservedW: p.reserved.W(),
	}
	for i := range p.polls {
		if p.polls[i].ok {
			rep.CPUPowerW += p.polls[i].cpuPowerW
		}
	}
	for _, ns := range r.coord.nodes {
		if ns.degraded {
			rep.Degraded = append(rep.Degraded, ns.spec.Name)
		}
	}
	if len(p.inputs) > 0 {
		curve, desired, err := r.coord.core.DemandCurveScratch(p.inputs)
		if err != nil {
			return fail("demand curve: %v", err)
		}
		for _, pt := range curve.Points {
			rep.Points = append(rep.Points, proto.DemandPoint{
				PowerW:   pt.Power.W(),
				Loss:     pt.Loss,
				StepLoss: pt.Step.Loss,
				StepIdx:  pt.Step.Idx,
				StepProc: pt.Step.Proc,
			})
		}
		rep.Desired = append(rep.Desired, desired...)
	}
	r.pending = p
	resp := out.ack(proto.KindDemandReport, r.coord.clock.Now())
	resp.DemandReport = rep
	return resp
}

// handleGrant is the settle half of the round the preceding
// demand-request opened: schedule the held counter windows under the
// granted budget, actuate, and acknowledge the resulting ledger.
func (r *Relay) handleGrant(req *proto.Message, out *reply) *proto.Message {
	p := r.pending
	if p == nil {
		return fail("grant without a preceding demand-request")
	}
	r.pending = nil
	// The relay's budget for ledger purposes is the grant plus the
	// reservation it reported at demand time: the root already holds
	// ReservedW against the global budget, so the grant covers only the
	// reachable children.
	grant := units.Watts(req.Grant.BudgetW)
	dec, _, err := r.coord.settleRound(p, "grant", grant+p.reserved, grant, nil)
	if err != nil {
		return fail("settle: %v", err)
	}
	out.grantAck = proto.GrantAck{
		ChargedW:    dec.Charged.W(),
		TablePowerW: dec.TablePower.W(),
		ReservedW:   dec.Reserved.W(),
		Met:         dec.BudgetMet,
	}
	resp := out.ack(proto.KindGrantAck, r.coord.clock.Now())
	resp.GrantAck = &out.grantAck
	return resp
}

// RelayGrant is one relay's slice of a root round.
type RelayGrant struct {
	Relay string
	// Acked reports whether the relay acknowledged this round's grant (a
	// demand-only round — no reachable children — counts as acked with
	// the relay's reservation as its charge).
	Acked bool
	// Grant is the budget awarded for the relay's reachable processors.
	Grant units.Power
	// Charged is what the root holds for the subtree: the acknowledged
	// ledger total, or the worst case under silence.
	Charged units.Power
	// TablePower/Reserved/Met echo the relay's GrantAck.
	TablePower units.Power
	Reserved   units.Power
	Met        bool
}

// RootDecision is one hierarchical scheduling round at the tree root.
type RootDecision struct {
	Round
	// DivideMet reports whether the least-loss division fit the live
	// budget without hitting every curve's floor.
	DivideMet bool
	Grants    []RelayGrant
}

// Root drives a tier of relays: demand poll, least-loss division of the
// budget across the reported curves, grant fan-out. It reuses the
// Coordinator's transport (dialing, handshake, retry, degrade/rejoin
// accounting) with relay-shaped rounds, and the division replays
// the flat Step-2 greedy exactly, so a fault-free tree schedules
// byte-identically to one flat coordinator over the same leaves.
type Root struct {
	*Coordinator
	rootDecisions []RootDecision

	// demands holds each relay's last demand, its curve and desire copied
	// out of the connection's decode buffers into storage reused round
	// after round; members, curves and desired are the division's inputs.
	// Only a RootDecision's Grants are allocated per round.
	demands []demandPoll
	members []int
	curves  []farm.DemandCurve
	desired [][]int
}

// NewRoot validates the configuration and prepares (but does not
// connect) the root coordinator. Config semantics match NewCoordinator;
// Fvsst supplies the table the division replays and the periods-per-round
// the relays advance their subtrees by.
func NewRoot(cfg Config, relays ...NodeSpec) (*Root, error) {
	c, err := NewCoordinator(cfg, relays...)
	if err != nil {
		return nil, err
	}
	return &Root{Coordinator: c}, nil
}

// RootDecisions returns the hierarchical round log.
func (r *Root) RootDecisions() []RootDecision {
	out := make([]RootDecision, len(r.rootDecisions))
	copy(out, r.rootDecisions)
	return out
}

// demandPoll is one relay's demand-phase result, deep-copied out of the
// connection-owned decode buffers inside the poll goroutine into slices
// the next round's poll overwrites.
type demandPoll struct {
	ok        bool
	curve     farm.DemandCurve
	desired   []int
	reservedW float64
	cpuPowerW float64
}

// demandPhase polls every relay for its aggregated demand curve.
func (r *Root) demandPhase(passID uint64, t *roundTimes) []demandPoll {
	c := r.Coordinator
	if r.demands == nil {
		r.demands = make([]demandPoll, len(c.nodes))
	}
	c.eachNode(func(i int, ns *nodeState) {
		d := &r.demands[i]
		d.ok = false
		resp, rt, err := c.rpc(ns, ns.counterRequest(proto.KindDemandRequest, passID, c.cfg.Fvsst.SchedulePeriods))
		if err != nil || resp.DemandReport == nil {
			c.recordMiss(ns, err)
			return
		}
		rep := resp.DemandReport
		d.ok, d.reservedW, d.cpuPowerW = true, rep.ReservedW, rep.CPUPowerW
		// The report's slices live in the connection's reusable decode
		// buffers; copy before the grant RPC reuses them.
		d.curve.Points = d.curve.Points[:0]
		for _, p := range rep.Points {
			d.curve.Points = append(d.curve.Points, farm.DemandPoint{
				Power: units.Watts(p.PowerW),
				Loss:  p.Loss,
				Step:  farm.StepKey{Loss: p.StepLoss, Idx: p.StepIdx, Proc: p.StepProc},
			})
		}
		d.desired = append(d.desired[:0], rep.Desired...)
		t.pollRPC[i] = rt
	})
	return r.demands
}

// RunRound executes one hierarchical scheduling period: demand-poll the
// relays, divide the budget across their curves with the flat greedy's
// exact stop arithmetic, then grant each relay its slice. Transport
// failures convert into frozen-subtree charges, never aborted rounds.
func (r *Root) RunRound() error {
	c := r.Coordinator
	// Always timed: the pass latency is part of the decision.
	t := c.startTimes(time.Now())
	passID, trigger, err := c.openRound("relay")
	if err != nil {
		return err
	}

	// Phase 1: parallel demand poll.
	demands := r.demandPhase(passID, t)
	t.poll = time.Since(t.passStart)

	// Phase 2: hold the out-of-division charges, then divide the
	// remainder across the reachable curves in exact flat-greedy order.
	var reserved units.Power
	members, curves, desired := r.members[:0], r.curves[:0], r.desired[:0]
	for i, ns := range c.nodes {
		if !demands[i].ok {
			reserved += c.worstCharge(ns)
			continue
		}
		reserved += units.Watts(demands[i].reservedW)
		if len(demands[i].curve.Points) > 0 {
			members = append(members, i)
			curves = append(curves, demands[i].curve)
			desired = append(desired, demands[i].desired)
		}
	}
	r.members, r.curves, r.desired = members, curves, desired
	liveBudget := c.budget - reserved
	divideStart := time.Now()
	pos, divideMet, err := farm.DivideLeastLossExact(curves, desired, c.cfg.Fvsst.Table, liveBudget)
	if err != nil {
		return err
	}
	t.mid = time.Since(divideStart)

	// Phase 3: parallel grant fan-out. Every relay that answered the
	// demand gets a grant — 0 W when it has no reachable children — so a
	// relay settles exactly one decision per round and its epoch clock
	// stays in lockstep with the root's.
	grants := make([]RelayGrant, len(c.nodes))
	for m, idx := range members {
		grants[idx].Grant = curves[m].Points[pos[m]].Power
	}
	t.actStart = time.Now()
	c.eachNode(func(i int, ns *nodeState) {
		g := &grants[i]
		g.Relay = ns.spec.Name
		if !demands[i].ok {
			return
		}
		req := ns.request(proto.KindGrant, passID)
		ns.grant = proto.Grant{BudgetW: g.Grant.W()}
		req.Grant = &ns.grant
		resp, rt, err := c.rpc(ns, req)
		if err != nil || resp.GrantAck == nil {
			c.recordMiss(ns, err)
			return
		}
		ack := resp.GrantAck
		g.Acked = true
		g.Charged = units.Watts(ack.ChargedW)
		g.TablePower = units.Watts(ack.TablePowerW)
		g.Reserved = units.Watts(ack.ReservedW)
		g.Met = ack.Met
		if g.Grant > 0 { // a 0 W grant leaves no rpc:grant span
			t.actRPC[i] = rt
		}
		ns.held, ns.acked = g.Charged, true
		c.recordAlive(ns)
	})
	t.act = time.Since(t.actStart)

	// Phase 4: the round's ledger and decision.
	var charged units.Power
	var degradedNames []string
	for i, ns := range c.nodes {
		if !grants[i].Acked {
			grants[i].Charged = c.worstCharge(ns)
			if ns.degraded {
				degradedNames = append(degradedNames, ns.spec.Name)
			}
		}
		charged += grants[i].Charged
	}
	r.rootDecisions = append(r.rootDecisions, RootDecision{
		Round: Round{
			At:        c.clock.Now(),
			Trigger:   trigger,
			Budget:    c.budget,
			Reserved:  reserved,
			Charged:   charged,
			BudgetMet: charged <= c.budget,
			Degraded:  degradedNames,
			PassDur:   time.Since(t.passStart),
		},
		DivideMet: divideMet,
		Grants:    grants,
	})
	c.cfg.Metrics.setDegraded(len(degradedNames))
	c.cfg.Metrics.setCharged(charged, reserved)
	c.cfg.Metrics.setWire(c.cfg.WireStats)

	if c.cfg.Sink != nil {
		at := c.clock.Now()
		var cpuPowerW float64
		for i := range demands {
			if demands[i].ok {
				cpuPowerW += demands[i].cpuPowerW
			}
		}
		c.cfg.Sink.Emit(obs.Event{
			Type:      obs.EventQuantum,
			At:        at,
			PassID:    passID,
			BudgetW:   c.budget.W(),
			CPUPowerW: cpuPowerW,
			ChargedW:  charged.W(),
			ReservedW: reserved.W(),
		})
		c.emitSpanTree(at, passID, t, obs.SpanDivide, nil, obs.SpanRPCDemand, obs.SpanRPCGrant)
	}

	c.clock.Tick()
	return nil
}
