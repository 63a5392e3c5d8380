package netcluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fvsst"
	"repro/internal/netcluster/proto"
	"repro/internal/netcluster/wire"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// NodeSpec addresses one agent.
type NodeSpec struct {
	Name string
	Addr string
}

// Dialer opens message connections to agents. The default dials TCP;
// faultnet.Network implements Dialer to inject partitions and faults.
type Dialer interface {
	Dial(node, addr string, timeout time.Duration) (proto.Conn, error)
}

// TCPDialer is the production dialer. Its connections speak JSON through
// the hello handshake and bin1 hot frames after it.
type TCPDialer struct {
	// Stats, when non-nil, accumulates wire codec counters across every
	// dialled connection.
	Stats *wire.Stats
}

// Dial connects over TCP.
func (d TCPDialer) Dial(node, addr string, timeout time.Duration) (proto.Conn, error) {
	return wire.DialStats(addr, timeout, d.Stats)
}

// Config parameterises the networked coordinator.
type Config struct {
	// Name identifies the coordinator in hello messages.
	Name string
	// Fvsst is the shared scheduling configuration (table, ε, periods).
	Fvsst fvsst.Config
	// Budget is the initial global processor power budget.
	Budget units.Power
	// Source optionally drives the budget over time: a lease Holder, a UPS
	// runway governor, or a power.BudgetSchedule (supply failures, site
	// capping).
	Source power.BudgetSource
	// MissK is how many consecutive failed rounds mark a node degraded.
	// Degraded or not, an unreachable node is always charged its
	// worst-case-under-silence power; MissK only gates the degrade
	// transition reported to operators. Default 3.
	MissK int
	// RPCTimeout bounds each RPC attempt and each dial. Default 500 ms.
	RPCTimeout time.Duration
	// Retries is how many times an RPC is retried after the first
	// attempt, with exponential backoff and jitter between attempts.
	// Default 2.
	Retries int
	// BackoffBase/BackoffMax bound the retry backoff. Defaults 10 ms and
	// 250 ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed feeds the backoff jitter; node i draws from an independent
	// stream seeded Seed+i (the repo's shared convention: one scenario
	// seed, fixed offsets per derived stream).
	Seed int64
	// Dialer defaults to TCPDialer.
	Dialer Dialer
	// Codec is the hot-message payload encoding. The zero value (or
	// wire.CodecName) is the binary codec, which is what ships: a peer
	// whose capabilities do not advertise it fails the handshake. "json"
	// keeps hot frames on JSON for scenario.runCodecDifferential's oracle
	// arm, its only setter outside tests.
	Codec string
	// WireStats, when non-nil, is read each round to emit per-pass
	// encode/decode spans and codec gauges. Point it at the same Stats
	// the Dialer's connections share (e.g. TCPDialer.Stats).
	WireStats *wire.Stats
	// Sink receives schedule, quantum and degrade/rejoin trace events.
	Sink obs.Sink
	// Metrics instruments the transport; nil disables.
	Metrics *Metrics
}

func (c *Config) applyDefaults() {
	if c.Name == "" {
		c.Name = "coordinator"
	}
	if c.MissK == 0 {
		c.MissK = 3
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 500 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.Dialer == nil {
		c.Dialer = TCPDialer{}
	}
}

// AgentError is a structured failure the agent returned (malformed
// request, rejected actuation). It is terminal for the RPC — retrying the
// same request would fail the same way — and does not cost the
// connection. A handshake with a peer that does not advertise the binary
// codec fails with one too; that one leaves no session behind.
type AgentError struct {
	Node   string
	Reason string
}

func (e *AgentError) Error() string {
	return fmt.Sprintf("netcluster: agent %s: %s", e.Node, e.Reason)
}

// nodeState is the coordinator's view of one agent. During a fan-out it is
// touched only by that node's worker; between phases access is
// single-threaded.
type nodeState struct {
	spec     NodeSpec
	conn     proto.Conn
	caps     *proto.Capabilities
	missed   int
	degraded bool
	// lastFreqs is the last acknowledged actuation (nil until the first
	// ack), kept for Status.
	lastFreqs []units.Frequency
	// held is the most the peer can draw while silent, once acked: the
	// table power of a node's last acknowledged actuation (settings change
	// only on actuation; the agent failsafe can only lower them), or the
	// ChargedW of a relay's last grant-ack (its children's settings cannot
	// rise without grants flowing through it).
	held  units.Power
	acked bool
	rng   *rand.Rand
	reqID uint64

	// req is the node's request scratch: every RPC of a round is built in
	// it, its payload pointing at one of the fields below, and a retry
	// resends it under a fresh ID. proto.Conn.Send does not retain a
	// message, so one per node serves every round.
	req        proto.Message
	trace      proto.TraceContext
	counterReq proto.CounterRequest
	actuate    proto.Actuate
	grant      proto.Grant
	// freqs is the actuation in flight; lastFreqs takes a copy on ack.
	freqs []units.Frequency
}

// request resets the node's request scratch to a payload-less kind request
// of pass passID.
func (ns *nodeState) request(kind string, passID uint64) *proto.Message {
	ns.trace.PassID = passID
	ns.req = proto.Message{Kind: kind, Trace: &ns.trace}
	return &ns.req
}

// counterRequest is request carrying a counter poll's (or a relay demand
// poll's) quanta: advance and window both one round's periods.
func (ns *nodeState) counterRequest(kind string, passID uint64, periods int) *proto.Message {
	req := ns.request(kind, passID)
	ns.counterReq = proto.CounterRequest{AdvanceQuanta: periods, WindowQuanta: periods}
	req.CounterRequest = &ns.counterReq
	return req
}

// resize returns s at length n, reusing its backing array when it is large
// enough. The contents are stale; callers overwrite every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NodeStatus is a point-in-time external view of one node.
type NodeStatus struct {
	Name      string
	Connected bool
	Degraded  bool
	Missed    int
	// LastActuation is the last acknowledged per-CPU assignment (nil
	// before the first ack).
	LastActuation []units.Frequency
	// ChargedIfSilent is what the coordinator would hold against the
	// budget were the node to go silent now.
	ChargedIfSilent units.Power
}

// Round is the header every scheduling round logs, flat or hierarchical:
// what Fleet.RunRound returns.
type Round struct {
	At      float64
	Trigger string
	Budget  units.Power
	// Reserved is the worst-case charge held outside the pass: for
	// unreachable nodes, or at a root for silent relays (their
	// frozen-subtree bounds) plus reachable relays' own reservations.
	Reserved units.Power
	// Charged is the total held against the budget: acknowledged live
	// assignments (or subtree ledgers) plus the worst case of the rest.
	Charged units.Power
	// BudgetMet reports Charged ≤ Budget.
	BudgetMet bool
	// Degraded lists the peers currently marked degraded: nodes, or at a
	// root relays.
	Degraded []string
	// PassDur is the round's wall-clock latency, demand fan-out through
	// grant settlement; only a root measures it.
	PassDur time.Duration
}

// Decision is one networked scheduling round.
type Decision struct {
	Round
	// TablePower is the live nodes' assigned table power.
	TablePower  units.Power
	Assignments []cluster.Assignment
	// NodeCharged is the per-node charge in node order: the acknowledged
	// assignment's table power for acked nodes, the worst case under
	// silence for the rest. Charged is their order-preserving sum, which
	// lets a hierarchical driver reproduce the flat ledger's float
	// accumulation exactly.
	NodeCharged []units.Power
	// Acked reports, per node, whether this round's actuation was
	// acknowledged.
	Acked []bool
}

// Coordinator runs the global two-step fvsst pass over the wire. Create
// with NewCoordinator, then Connect, then drive rounds with RunRound. Not
// safe for concurrent use.
type Coordinator struct {
	cfg    Config
	core   *cluster.Core
	nodes  []*nodeState
	budget units.Power
	// clock is the coordinator's scheduling epoch: rounds × period,
	// advanced one period per RunRound (engine.SimClock replaces the old
	// hand-rolled now/period accumulator). Nodes that miss rounds freeze
	// behind it and catch up in wall-clock (not simulated) terms only; the
	// budget ledger uses coordinator time.
	clock     *engine.SimClock
	quantum   float64
	decisions []Decision
	// passID counts rounds from the engine clock epoch (round k runs at
	// epoch time (k−1)·T); it stamps the round's schedule event and spans
	// and rides the wire as proto.TraceContext.
	passID uint64
	// lastWire is the previous round's codec counter snapshot, so the
	// encode/decode spans report per-pass deltas of the cumulative stats.
	lastWire wire.StatsSnapshot
	// round and times are the per-round scratch pollRound and startTimes
	// hand out: each round overwrites the last one's.
	round polledRound
	times roundTimes

	// work[i] hands node i's worker its share of a fan-out (eachNode); nil
	// while no workers run. phase counts one fan-out's unfinished calls,
	// workers the goroutines Close has to wait out.
	work    []chan func(i int, ns *nodeState)
	phase   sync.WaitGroup
	workers sync.WaitGroup
}

// NewCoordinator validates the configuration and prepares (but does not
// connect) the control plane.
func NewCoordinator(cfg Config, specs ...NodeSpec) (*Coordinator, error) {
	cfg.applyDefaults()
	core, err := cluster.NewCore(cfg.Fvsst)
	if err != nil {
		return nil, err
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("netcluster: budget %v must be positive", cfg.Budget)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("netcluster: at least one node required")
	}
	if cfg.MissK < 1 {
		return nil, fmt.Errorf("netcluster: miss threshold %d must be ≥ 1", cfg.MissK)
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("netcluster: negative retries")
	}
	switch cfg.Codec {
	case "", "json", wire.CodecName:
	default:
		return nil, fmt.Errorf("netcluster: unknown codec %q", cfg.Codec)
	}
	seen := make(map[string]bool, len(specs))
	nodes := make([]*nodeState, len(specs))
	for i, s := range specs {
		if s.Name == "" || s.Addr == "" {
			return nil, fmt.Errorf("netcluster: node %d needs name and address", i)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("netcluster: duplicate node name %q", s.Name)
		}
		seen[s.Name] = true
		nodes[i] = &nodeState{
			spec: s,
			rng:  rand.New(rand.NewSource(cfg.Seed + int64(i))),
		}
	}
	// Phase timing (the step-span breakdown) is only worth the clock reads
	// when a sink will see the spans.
	core.SetPhaseTiming(cfg.Sink != nil)
	return &Coordinator{cfg: cfg, core: core, nodes: nodes, budget: cfg.Budget, clock: engine.NewSimClock(0)}, nil
}

// Connect establishes every node's session. Initial connection is strict
// — a cluster that starts partially up is a deployment error — while
// failures after Connect are tolerated and charged.
func (c *Coordinator) Connect() error {
	for _, ns := range c.nodes {
		if err := c.ensureConn(ns); err != nil {
			return err
		}
	}
	// The round period is only known once the nodes report their dispatch
	// quantum; re-arm the epoch clock at the same (zero) time with the
	// per-round advance.
	c.clock = engine.NewSimClock(float64(c.cfg.Fvsst.SchedulePeriods) * c.quantum)
	return nil
}

// Close stops the per-node workers, waits for them to exit and tears down
// every connection. Like sessions, workers come back with the next round.
func (c *Coordinator) Close() {
	for _, ch := range c.work {
		close(ch)
	}
	c.workers.Wait()
	c.work = nil
	for _, ns := range c.nodes {
		if ns.conn != nil {
			ns.conn.Close()
			ns.conn = nil
		}
	}
}

// Now returns the coordinator's scheduling epoch in seconds.
func (c *Coordinator) Now() float64 { return c.clock.Now() }

// Decisions returns the round log.
func (c *Coordinator) Decisions() []Decision {
	out := make([]Decision, len(c.decisions))
	copy(out, c.decisions)
	return out
}

// Status reports the coordinator's current view of every node.
func (c *Coordinator) Status() []NodeStatus {
	out := make([]NodeStatus, len(c.nodes))
	for i, ns := range c.nodes {
		st := NodeStatus{
			Name:          ns.spec.Name,
			Connected:     ns.conn != nil,
			Degraded:      ns.degraded,
			Missed:        ns.missed,
			LastActuation: append([]units.Frequency(nil), ns.lastFreqs...),
		}
		if ns.caps != nil {
			st.ChargedIfSilent = c.worstCharge(ns)
		}
		out[i] = st
	}
	return out
}

// worstCharge is the power held against the budget for a silent peer, node
// or relay: what it acknowledged last, or every CPU at the table maximum
// when it never acknowledged anything in its current shape.
func (c *Coordinator) worstCharge(ns *nodeState) units.Power {
	if ns.acked {
		return ns.held
	}
	return units.Watts(float64(ns.caps.NumCPUs) * ns.caps.MaxPowerW)
}

// ensureConn dials and re-runs the hello handshake if the node has no
// live session. On a rejoin the fresh capabilities re-sync the
// coordinator's view (a swapped machine invalidates the last actuation).
func (c *Coordinator) ensureConn(ns *nodeState) error {
	if ns.conn != nil {
		return nil
	}
	conn, err := c.cfg.Dialer.Dial(ns.spec.Name, ns.spec.Addr, c.cfg.RPCTimeout)
	if err != nil {
		return err
	}
	binary := c.cfg.Codec != "json"
	hello := &proto.Hello{Coordinator: c.cfg.Name}
	if binary {
		hello.Codecs = []string{"json", wire.CodecName}
	}
	ns.reqID++
	resp, err := c.exchange(conn, ns.spec.Name, &proto.Message{
		Kind:  proto.KindHello,
		ID:    ns.reqID,
		Hello: hello,
	}, time.Now().Add(c.cfg.RPCTimeout))
	if err != nil {
		conn.Close()
		return err
	}
	if resp.Kind != proto.KindHelloAck || resp.Capabilities == nil {
		conn.Close()
		return fmt.Errorf("netcluster: %s answered hello with %q", ns.spec.Name, resp.Kind)
	}
	caps := *resp.Capabilities
	if err := c.validateCaps(ns, caps); err != nil {
		conn.Close()
		return err
	}
	if binary && !wire.Negotiate(caps.Codecs) {
		// Fail closed: the node stays without a session, so every round
		// charges it worst-case and never schedules it over JSON.
		conn.Close()
		return &AgentError{Node: ns.spec.Name, Reason: fmt.Sprintf("advertises codecs %q, not %s", caps.Codecs, wire.CodecName)}
	}
	if ns.caps != nil && ns.caps.NumCPUs != caps.NumCPUs {
		// The peer came back a different shape; what it acknowledged
		// before is meaningless.
		ns.lastFreqs, ns.acked = nil, false
	}
	if c.quantum == 0 {
		// The first handshake pins the cluster quantum; Connect is
		// single-threaded, so later concurrent rejoins only read it.
		c.quantum = caps.QuantumSec
	}
	// Hot frames go binary from here on; the handshake itself, and every
	// future error frame, stays JSON.
	conn.SetBinary(binary)
	ns.caps = &caps
	ns.conn = conn
	c.cfg.Metrics.countReconnect(ns.spec.Name)
	return nil
}

func (c *Coordinator) validateCaps(ns *nodeState, caps proto.Capabilities) error {
	if caps.NumCPUs <= 0 {
		return fmt.Errorf("netcluster: %s reports %d CPUs", ns.spec.Name, caps.NumCPUs)
	}
	if caps.QuantumSec <= 0 {
		return fmt.Errorf("netcluster: %s reports quantum %v", ns.spec.Name, caps.QuantumSec)
	}
	if c.quantum != 0 && caps.QuantumSec != c.quantum {
		return fmt.Errorf("netcluster: %s quantum %v differs from cluster quantum %v",
			ns.spec.Name, caps.QuantumSec, c.quantum)
	}
	// The coordinator schedules from its own table; every setting it can
	// assign must exist on the node.
	avail := make(map[float64]bool, len(caps.FreqsMHz))
	for _, mhz := range caps.FreqsMHz {
		avail[mhz] = true
	}
	for _, f := range c.cfg.Fvsst.Table.Frequencies() {
		if !avail[f.MHz()] {
			return fmt.Errorf("netcluster: %s lacks operating point %v", ns.spec.Name, f)
		}
	}
	return nil
}

// exchange performs one request/response on conn by deadline, discarding
// responses whose ID does not match (late retransmissions, faultnet
// duplicates). It arms the deadline and never clears it: exchange is the
// only reader and writer of a coordinator-side conn and every attempt,
// hello included, arms a fresh one before its first byte, so a deadline
// left over from the last attempt can expire on nothing.
func (c *Coordinator) exchange(conn proto.Conn, node string, req *proto.Message, deadline time.Time) (*proto.Message, error) {
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if err := conn.Send(req); err != nil {
		return nil, err
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			return nil, err
		}
		if m.ID != req.ID {
			continue
		}
		if m.Kind == proto.KindError {
			return nil, &AgentError{Node: node, Reason: m.Error}
		}
		return m, nil
	}
}

// backoffDelay is the bounded exponential backoff with jitter before
// retry attempt (0-based): uniform in [d/2, d] where d doubles from base
// up to max. Jitter decorrelates a fleet of retrying coordinators; the
// explicit rng keeps each node's delay sequence reproducible from the
// scenario seed.
func backoffDelay(attempt int, base, max time.Duration, rng *rand.Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// rpcTime is the timing of one successful RPC: when the winning attempt
// went out, its round trip, and the agent's self-reported service time —
// the raw material for the rpc:* span queue/wire/apply breakdown.
type rpcTime struct {
	sentAt  time.Time
	rtt     time.Duration
	service float64
}

// rpc runs req (the node's request scratch) against the node with
// per-attempt deadlines and bounded, jittered retry, redialling broken
// sessions between attempts; each attempt sends it under a fresh ID.
//
// An attempt on a live session reads the clock twice: when it sends, which
// also gives it its deadline, and when the answer is in. The RPC's
// observed latency runs from its first read to its last, so it covers
// every attempt; when the RPC opens with a dial, one more read before the
// dial makes it cover that too.
func (c *Coordinator) rpc(ns *nodeState, req *proto.Message) (*proto.Message, rpcTime, error) {
	kind := req.Kind
	var start time.Time
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.cfg.Metrics.countRetry(ns.spec.Name, kind)
			time.Sleep(backoffDelay(attempt-1, c.cfg.BackoffBase, c.cfg.BackoffMax, ns.rng))
		}
		if ns.conn == nil {
			if start.IsZero() {
				start = time.Now()
			}
			if err := c.ensureConn(ns); err != nil {
				lastErr = err
				continue
			}
		}
		ns.reqID++
		req.ID = ns.reqID
		sent := time.Now()
		if start.IsZero() {
			start = sent
		}
		resp, err := c.exchange(ns.conn, ns.spec.Name, req, sent.Add(c.cfg.RPCTimeout))
		if err == nil {
			done := time.Now()
			c.cfg.Metrics.observeRPC(ns.spec.Name, kind, done.Sub(start))
			return resp, rpcTime{sentAt: sent, rtt: done.Sub(sent), service: resp.ServiceSec}, nil
		}
		lastErr = err
		var ae *AgentError
		if errors.As(err, &ae) {
			// Semantic rejection: the session is healthy and a retry
			// would fail identically.
			c.cfg.Metrics.countFailure(ns.spec.Name, kind)
			return nil, rpcTime{}, err
		}
		if isTimeout(err) {
			c.cfg.Metrics.countTimeout(ns.spec.Name, kind)
		}
		// The stream may hold stale bytes or be dead; start clean.
		ns.conn.Close()
		ns.conn = nil
	}
	c.cfg.Metrics.countFailure(ns.spec.Name, kind)
	return nil, rpcTime{}, fmt.Errorf("netcluster: %s %s failed after %d attempts: %w",
		ns.spec.Name, kind, c.cfg.Retries+1, lastErr)
}

// recordMiss charges a failed round against the node, degrading it at the
// MissK threshold.
func (c *Coordinator) recordMiss(ns *nodeState, cause error) {
	ns.missed++
	if ns.degraded || ns.missed < c.cfg.MissK {
		return
	}
	ns.degraded = true
	c.cfg.Metrics.countTransition(ns.spec.Name, "degrade")
	if c.cfg.Sink != nil {
		detail := fmt.Sprintf("missed %d rounds", ns.missed)
		if cause != nil {
			detail += ": " + cause.Error()
		}
		c.cfg.Sink.Emit(obs.Event{
			Type:      obs.EventDegrade,
			At:        c.clock.Now(),
			Node:      ns.spec.Name,
			ReservedW: c.worstCharge(ns).W(),
			Detail:    detail,
		})
	}
}

// recordAlive resets the miss count after a fully successful round,
// rejoining a degraded node.
func (c *Coordinator) recordAlive(ns *nodeState) {
	ns.missed = 0
	if !ns.degraded {
		return
	}
	ns.degraded = false
	c.cfg.Metrics.countTransition(ns.spec.Name, "rejoin")
	if c.cfg.Sink != nil {
		c.cfg.Sink.Emit(obs.Event{
			Type:   obs.EventRejoin,
			At:     c.clock.Now(),
			Node:   ns.spec.Name,
			Detail: "session re-established; capabilities re-synced",
		})
	}
}

// eachNode runs fn once per node, all calls concurrently, and waits for
// them: the one fan-out every per-peer phase of every tier goes through
// (counter poll, actuation, demand poll, grant). fn owns node i's state and
// its slot in any result slice for the duration; between phases access is
// single-threaded. Call i runs on node i's long-lived worker — one per
// connection, since an RPC spends its time blocked on its peer and a
// smaller pool would serialise round trips. The first fan-out starts the
// workers and Close stops them.
func (c *Coordinator) eachNode(fn func(i int, ns *nodeState)) {
	if c.work == nil {
		c.startWorkers()
	}
	c.phase.Add(len(c.work))
	for _, ch := range c.work {
		ch <- fn
	}
	c.phase.Wait()
}

// startWorkers starts one goroutine per node, each running what eachNode
// sends it until Close closes its channel.
func (c *Coordinator) startWorkers() {
	c.work = make([]chan func(int, *nodeState), len(c.nodes))
	c.workers.Add(len(c.nodes))
	for i, ns := range c.nodes {
		ch := make(chan func(int, *nodeState))
		c.work[i] = ch
		go func() {
			defer c.workers.Done()
			for fn := range ch {
				fn(i, ns)
				c.phase.Done()
			}
		}()
	}
}

// poll is one node's round result.
type poll struct {
	ok        bool
	reports   []proto.CPUReport
	cpuPowerW float64
}

// polledRound is the poll half of a round: the counter windows of every
// reachable node as scheduler inputs (nodeInputs maps node → its input
// indices, in CPU order) and the worst-case charge of every unreachable
// one. The flat coordinator settles it at once; a relay holds it from the
// demand-request to the grant, so the subtree is advanced exactly once per
// round and the grant schedules the very counter windows the exported
// curve was derived from. Each Coordinator owns one, which every round's
// poll overwrites: the inputs' observations point into obs.
type polledRound struct {
	passID     uint64
	polls      []poll
	inputs     []cluster.ProcInput
	nodeInputs [][]int
	obs        []perfmodel.Observation
	reserved   units.Power
}

// roundTimes is a round's wall-clock skeleton, flat or hierarchical: a
// per-peer poll fan-out, a local middle phase, a per-peer actuate
// fan-out. A flat round makes one only with a sink attached, and the
// halves read the clock only when handed it; the root always does, its
// pass latency being part of the decision. A zero rpcTime is a peer whose
// RPC left no span.
type roundTimes struct {
	passStart, actStart time.Time
	poll, mid, act      time.Duration
	pollRPC, actRPC     []rpcTime
}

// startTimes resets the coordinator's round timing scratch for a round
// that began at passStart.
func (c *Coordinator) startTimes(passStart time.Time) *roundTimes {
	t := &c.times
	if t.pollRPC == nil {
		t.pollRPC, t.actRPC = make([]rpcTime, len(c.nodes)), make([]rpcTime, len(c.nodes))
	}
	clear(t.pollRPC)
	clear(t.actRPC)
	*t = roundTimes{passStart: passStart, pollRPC: t.pollRPC, actRPC: t.actRPC}
	return t
}

// pollRound is the first half of a round: parallel counter poll, then
// input assembly. The poll is the liveness probe too: a node that does not
// answer it is charged its worst case for the round. Every request carries
// the round's trace context, which agents echo on the ack.
//
// A poll's report slice may be conn-owned (the binary codec reuses its
// decode buffers), so inputs must be fully built before the next message
// is received on that node's connection — which holds: actuation only
// starts in the settle half.
func (c *Coordinator) pollRound(passID uint64, t *roundTimes) *polledRound {
	p := &c.round
	if p.polls == nil {
		p.polls, p.nodeInputs = make([]poll, len(c.nodes)), make([][]int, len(c.nodes))
	}
	clear(p.polls)
	p.passID, p.inputs, p.reserved = passID, p.inputs[:0], 0
	c.eachNode(func(i int, ns *nodeState) {
		resp, rt, err := c.rpc(ns, ns.counterRequest(proto.KindCounterRequest, passID, c.cfg.Fvsst.SchedulePeriods))
		if err != nil || resp.CounterReport == nil {
			c.recordMiss(ns, err)
			return
		}
		if len(resp.CounterReport.CPUs) != ns.caps.NumCPUs {
			c.recordMiss(ns, fmt.Errorf("report covers %d of %d CPUs", len(resp.CounterReport.CPUs), ns.caps.NumCPUs))
			return
		}
		p.polls[i] = poll{ok: true, reports: resp.CounterReport.CPUs, cpuPowerW: resp.CounterReport.CPUPowerW}
		if t != nil {
			t.pollRPC[i] = rt
		}
	})
	if t != nil {
		t.poll = time.Since(t.passStart)
	}
	cpus := 0
	for i := range p.polls {
		cpus += len(p.polls[i].reports)
	}
	// Sized before the first pointer into it is taken: no append may move it.
	p.obs = resize(p.obs, cpus)
	for i, ns := range c.nodes {
		p.nodeInputs[i] = p.nodeInputs[i][:0]
		if !p.polls[i].ok {
			p.reserved += c.worstCharge(ns)
			continue
		}
		for cpu, rep := range p.polls[i].reports {
			in := cluster.ProcInput{
				Proc: cluster.ProcRef{Node: i, CPU: cpu},
				Node: ns.spec.Name,
				Idle: rep.Idle,
			}
			if o, ok := perfmodel.ObservationFrom(rep.Delta()); ok {
				p.obs[len(p.inputs)] = o
				in.Obs = &p.obs[len(p.inputs)]
			}
			p.nodeInputs[i] = append(p.nodeInputs[i], len(p.inputs))
			p.inputs = append(p.inputs, in)
		}
	}
	return p
}

// actuatePhase is parallel actuation of every polled node. lastFreqs only
// advances on ack; settleRound charges it and holds the sum for silence.
// acked is the round's Decision.Acked, the one slice it allocates.
func (c *Coordinator) actuatePhase(p *polledRound, assignments []cluster.Assignment, t *roundTimes) []bool {
	acked := make([]bool, len(c.nodes))
	c.eachNode(func(i int, ns *nodeState) {
		if !p.polls[i].ok {
			return
		}
		n := len(p.nodeInputs[i])
		ns.freqs, ns.actuate.FreqsMHz = resize(ns.freqs, n), resize(ns.actuate.FreqsMHz, n)
		for cpu, idx := range p.nodeInputs[i] {
			ns.freqs[cpu] = assignments[idx].Actual
			ns.actuate.FreqsMHz[cpu] = ns.freqs[cpu].MHz()
		}
		req := ns.request(proto.KindActuate, p.passID)
		req.Actuate = &ns.actuate
		_, rt, err := c.rpc(ns, req)
		if err != nil {
			c.recordMiss(ns, err)
			return
		}
		ns.lastFreqs = append(ns.lastFreqs[:0], ns.freqs...)
		acked[i] = true
		if t != nil {
			t.actRPC[i] = rt
		}
		c.recordAlive(ns)
	})
	return acked
}

// openRound is the opening the flat and hierarchical rounds share: refuse
// to run before Connect (peer names the children in the error), take the
// next pass id, and fire the budget-change trigger when the source's
// budget moved.
func (c *Coordinator) openRound(peer string) (passID uint64, trigger string, err error) {
	for _, ns := range c.nodes {
		if ns.caps == nil {
			return 0, "", fmt.Errorf("netcluster: %s %s never connected; call Connect first", peer, ns.spec.Name)
		}
	}
	c.passID++
	trigger = "timer"
	if c.cfg.Source != nil {
		if want := c.cfg.Source.BudgetAt(c.clock.Now()); want != c.budget {
			c.budget = want
			trigger = "budget-change"
		}
	}
	return c.passID, trigger, nil
}

// settleRound is the second half of a round: run the shared global pass
// over the polled inputs under live, actuate the survivors, charge the
// ledger against budget — acknowledged nodes their new assignment's table
// power, everyone else their worst case under silence — log the Decision
// and advance the epoch clock. The flat coordinator settles under (its
// budget, budget − reserved); a relay under (grant + reserved, grant),
// since its root already holds the reservation against the global budget.
// Transport failures never abort the round — they convert into charges —
// so the returned error indicates a scheduling-core problem only.
func (c *Coordinator) settleRound(p *polledRound, trigger string, budget, live units.Power, t *roundTimes) (Decision, cluster.PassResult, error) {
	var schedStart time.Time
	if t != nil {
		schedStart = time.Now()
	}
	res, err := c.core.Schedule(p.inputs, live)
	if err != nil {
		return Decision{}, res, err
	}
	if t != nil {
		t.actStart = time.Now()
		t.mid = t.actStart.Sub(schedStart)
	}
	acked := c.actuatePhase(p, res.Assignments, t)
	if t != nil {
		t.act = time.Since(t.actStart)
	}

	dec := Decision{
		Round:       Round{At: c.clock.Now(), Trigger: trigger, Budget: budget},
		TablePower:  res.TablePower,
		Assignments: res.Assignments,
		NodeCharged: make([]units.Power, len(c.nodes)),
		Acked:       acked,
	}
	for i, ns := range c.nodes {
		var w units.Power
		if acked[i] {
			if w, err = fvsst.TotalTablePower(ns.lastFreqs, c.cfg.Fvsst.Table); err != nil {
				return Decision{}, res, err
			}
			ns.held, ns.acked = w, true
		} else {
			w = c.worstCharge(ns)
			dec.Reserved += w
			if ns.degraded {
				dec.Degraded = append(dec.Degraded, ns.spec.Name)
			}
		}
		dec.NodeCharged[i] = w
		dec.Charged += w
	}
	dec.BudgetMet = dec.Charged <= budget
	c.decisions = append(c.decisions, dec)
	c.cfg.Metrics.setDegraded(len(dec.Degraded))
	c.cfg.Metrics.setCharged(dec.Charged, dec.Reserved)
	c.cfg.Metrics.setWire(c.cfg.WireStats)
	c.clock.Tick()
	return dec, res, nil
}

// RunRound executes one scheduling period over the wire: poll every node
// in parallel, then settle the poll under the budget
// reduced by the worst-case charge of every unreachable node. A relay
// runs the same two halves with its root's grant arriving in between.
func (c *Coordinator) RunRound() error {
	var t *roundTimes
	if c.cfg.Sink != nil {
		t = c.startTimes(time.Now())
	}
	passID, trigger, err := c.openRound("node")
	if err != nil {
		return err
	}
	p := c.pollRound(passID, t)
	dec, res, err := c.settleRound(p, trigger, c.budget, c.budget-p.reserved, t)
	if err != nil || t == nil {
		return err
	}

	at, sink := dec.At, c.cfg.Sink
	ev := cluster.PassEvent(at, trigger, dec.Budget, p.inputs, res)
	ev.PassID = passID
	ev.ChargedW = dec.Charged.W()
	ev.ReservedW = dec.Reserved.W()
	ev.HeadroomW = (dec.Budget - dec.Charged).W()
	ev.BudgetMissed = !dec.BudgetMet
	sink.Emit(ev)
	// Aggregate quantum sample (Node empty, carries the budget and the
	// acked nodes' measured power), plus one per polled node so the energy
	// ledger can integrate per-node Joules. Consumers treat the unnamed row
	// as the cluster aggregate.
	var cpuPowerW float64
	for i := range p.polls {
		if dec.Acked[i] {
			cpuPowerW += p.polls[i].cpuPowerW
		}
	}
	sink.Emit(obs.Event{
		Type:      obs.EventQuantum,
		At:        at,
		PassID:    passID,
		BudgetW:   dec.Budget.W(),
		CPUPowerW: cpuPowerW,
	})
	for i, ns := range c.nodes {
		if !p.polls[i].ok {
			continue
		}
		sink.Emit(obs.Event{
			Type:      obs.EventQuantum,
			At:        at,
			PassID:    passID,
			Node:      ns.spec.Name,
			CPUPowerW: p.polls[i].cpuPowerW,
		})
	}
	c.emitSpanTree(at, passID, t, obs.SpanSchedule, &res.Timings, obs.SpanRPCCounters, obs.SpanRPCActuate)
	return nil
}

// emitSpanTree emits a round's span tree: the three phase children (mid
// names the middle one and steps, when it has any, are its Figure-3
// breakdown), per-peer RPC spans with the queue/wire/apply split, the
// pass's share of the cumulative codec time when Config.WireStats is set,
// and the pass root last.
func (c *Coordinator) emitSpanTree(at float64, passID uint64, t *roundTimes, mid string, steps *fvsst.PassTimings, pollRPC, actRPC string) {
	sink := c.cfg.Sink
	sink.Emit(obs.SpanEvent(at, passID, "", obs.SpanPoll, obs.SpanPass, t.poll.Seconds()))
	sink.Emit(obs.SpanEvent(at, passID, "", mid, obs.SpanPass, t.mid.Seconds()))
	if steps != nil {
		fvsst.EmitStepSpans(sink, at, passID, *steps)
	}
	sink.Emit(obs.SpanEvent(at, passID, "", obs.SpanActuate, obs.SpanPass, t.act.Seconds()))
	for i, ns := range c.nodes {
		if rt := t.pollRPC[i]; !rt.sentAt.IsZero() {
			sink.Emit(rpcSpan(at, passID, ns.spec.Name, pollRPC, t.passStart, rt))
		}
		if rt := t.actRPC[i]; !rt.sentAt.IsZero() {
			sink.Emit(rpcSpan(at, passID, ns.spec.Name, actRPC, t.actStart, rt))
		}
	}
	if c.cfg.WireStats != nil {
		snap := c.cfg.WireStats.Snapshot()
		encode := float64(snap.EncodeNanos-c.lastWire.EncodeNanos) / 1e9
		decode := float64(snap.DecodeNanos-c.lastWire.DecodeNanos) / 1e9
		c.lastWire = snap
		sink.Emit(obs.SpanEvent(at, passID, "", obs.SpanEncode, obs.SpanPass, encode))
		sink.Emit(obs.SpanEvent(at, passID, "", obs.SpanDecode, obs.SpanPass, decode))
	}
	sink.Emit(obs.SpanEvent(at, passID, "", obs.SpanPass, "", time.Since(t.passStart).Seconds()))
}

// rpcSpan renders one node RPC as an rpc:* span: queue is how long the
// request waited behind earlier phase work before its winning attempt was
// sent (measured from phaseStart), apply is the agent's self-reported
// service time, and wire is the measured round-trip minus apply, clamped
// at zero in case the two clocks disagree at microsecond scale.
func rpcSpan(at float64, passID uint64, node, name string, phaseStart time.Time, rt rpcTime) obs.Event {
	queue := rt.sentAt.Sub(phaseStart).Seconds()
	if queue < 0 {
		queue = 0
	}
	wire := rt.rtt.Seconds() - rt.service
	if wire < 0 {
		wire = 0
	}
	return obs.RPCSpanEvent(at, passID, node, name, rt.rtt.Seconds(), queue, wire, rt.service)
}
