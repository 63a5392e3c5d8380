package netcluster

import (
	"errors"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/netcluster/faultnet"
	"repro/internal/netcluster/proto"
	"repro/internal/netcluster/wire"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

func quietMachineConfig(seed int64) machine.Config {
	cfg := machine.P630Config()
	cfg.LatencyJitterSigma = 0
	cfg.Contention = memhier.Contention{}
	cfg.ThrottleSettle = 0
	cfg.Seed = seed
	return cfg
}

func testFvsst() fvsst.Config {
	cfg := fvsst.DefaultConfig()
	cfg.Overhead = fvsst.Overhead{}
	cfg.UseIdleSignal = true
	return cfg
}

func cpuProg(instr uint64) workload.Program {
	return workload.Program{Name: "cpu", Phases: []workload.Phase{{
		Name: "c", Alpha: 1.4, Instructions: instr,
	}}}
}

func memProg(instr uint64) workload.Program {
	return workload.Program{Name: "mem", Phases: []workload.Phase{{
		Name: "m", Alpha: 1.1,
		Rates:        memhier.AccessRates{L2PerInstr: 0.030, L3PerInstr: 0.006, MemPerInstr: 0.0186},
		Instructions: instr,
	}}}
}

// metricValue reads one series of met's registry: a counter's value or a
// histogram's observation count. A series nothing touched reads 0.
func metricValue(met *Metrics, name string, labels ...string) float64 {
	for _, f := range met.Registry.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if slices.Equal(s.LabelValues, labels) {
				if f.Kind == obs.KindHistogram {
					return float64(s.Count)
				}
				return s.Value
			}
		}
	}
	return 0
}

// eventLog is a trace sink that keeps every event in emission order.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) Emit(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// all returns a copy of the events so far.
func (l *eventLog) all() []obs.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.Event(nil), l.events...)
}

// startAgent spins up an agent on loopback whose CPU 0 runs a cpu-bound
// and CPU 1 a memory-bound endless program.
func startAgent(t *testing.T, name string, seed int64, lease time.Duration, sink obs.Sink) (*Agent, *machine.Machine) {
	t.Helper()
	m, err := machine.New(quietMachineConfig(seed), []workload.Program{cpuProg(1e12)}, []workload.Program{memProg(1e12)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(AgentConfig{Name: name, M: m, FailsafeLease: lease, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a, m
}

// fastRetry makes transport failures cheap in wall-clock terms.
func fastRetry(cfg *Config) {
	cfg.RPCTimeout = 50 * time.Millisecond
	cfg.Retries = 1
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 2 * time.Millisecond
}

func TestBackoffDelay(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 12; attempt++ {
		want := base << attempt
		if want > max || want <= 0 {
			want = max
		}
		for i := 0; i < 50; i++ {
			d := backoffDelay(attempt, base, max, rng)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
	// Same seed, same sequence.
	r1, r2 := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		if a, b := backoffDelay(i%4, base, max, r1), backoffDelay(i%4, base, max, r2); a != b {
			t.Fatalf("draw %d: %v vs %v from the same seed", i, a, b)
		}
	}
	if d := backoffDelay(3, 0, 0, rng); d != 0 {
		t.Errorf("zero base/max gave %v", d)
	}
}

func TestRoundTripScheduling(t *testing.T) {
	a0, m0 := startAgent(t, "n0", 1, 0, nil)
	a1, m1 := startAgent(t, "n1", 2, 0, nil)
	sink := &obs.Buffer{}
	met := NewMetrics()
	c, err := NewCoordinator(Config{
		Fvsst:   testFvsst(),
		Budget:  units.Watts(500),
		Seed:    1,
		Sink:    sink,
		Metrics: met,
	}, NodeSpec{Name: "n0", Addr: a0.Addr()}, NodeSpec{Name: "n1", Addr: a1.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	decs := c.Decisions()
	if len(decs) != rounds {
		t.Fatalf("%d decisions after %d rounds", len(decs), rounds)
	}
	for _, d := range decs {
		if !d.BudgetMet || d.Charged > d.Budget {
			t.Errorf("t=%v charged %v against budget %v", d.At, d.Charged, d.Budget)
		}
		if d.Reserved != 0 || len(d.Degraded) != 0 {
			t.Errorf("t=%v healthy cluster reserved %v for %v", d.At, d.Reserved, d.Degraded)
		}
	}
	// The coordinator epoch and both node clocks advanced in lockstep:
	// one period of SchedulePeriods quanta per round.
	wantNow := float64(rounds) * (float64(c.cfg.Fvsst.SchedulePeriods) * c.quantum)
	if c.Now() != wantNow {
		t.Errorf("coordinator at %v, want %v", c.Now(), wantNow)
	}
	status := c.Status()
	c.Close()
	a0.Close()
	a1.Close()
	for i, m := range []*machine.Machine{m0, m1} {
		if got := m.Now(); got < wantNow-1e-9 || got > wantNow+1e-9 {
			t.Errorf("node %d clock at %v, want %v", i, got, wantNow)
		}
	}
	// The last acknowledged actuation matches what the machines run.
	for i, m := range []*machine.Machine{m0, m1} {
		if status[i].LastActuation == nil {
			t.Fatalf("node %d never actuated", i)
		}
		for cpu, want := range status[i].LastActuation {
			if got := m.EffectiveFrequency(cpu); got != want {
				t.Errorf("node %d cpu %d at %v, actuated %v", i, cpu, got, want)
			}
		}
	}
	if n := sink.Count(obs.EventSchedule, ""); n != rounds {
		t.Errorf("%d schedule events, want %d", n, rounds)
	}
	if v := metricValue(met, "netcluster_rpc_latency_seconds", "n0", proto.KindCounterRequest); v == 0 {
		t.Error("no counter-request latency observations")
	}
	if v := metricValue(met, "netcluster_rpc_failures_total", "n0", proto.KindHeartbeat); v != 0 {
		t.Errorf("healthy run recorded %v heartbeat failures", v)
	}
}

func TestAgentErrorIsTerminal(t *testing.T) {
	a0, _ := startAgent(t, "n0", 1, 0, nil)
	met := NewMetrics()
	cfg := Config{Fvsst: testFvsst(), Budget: units.Watts(500), Metrics: met}
	fastRetry(&cfg)
	c, err := NewCoordinator(cfg, NodeSpec{Name: "n0", Addr: a0.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A malformed actuation is rejected by the agent; the coordinator
	// must surface it as an AgentError without burning retries or the
	// connection.
	ns := c.nodes[0]
	_, _, err = c.rpc(ns, &proto.Message{Kind: proto.KindActuate, Actuate: &proto.Actuate{FreqsMHz: []float64{1000}}})
	var ae *AgentError
	if !errors.As(err, &ae) {
		t.Fatalf("got %v, want AgentError", err)
	}
	if v := metricValue(met, "netcluster_rpc_retries_total", "n0", proto.KindActuate); v != 0 {
		t.Errorf("semantic rejection burned %v retries", v)
	}
	if ns.conn == nil {
		t.Fatal("semantic rejection cost the connection")
	}
	if _, _, err := c.rpc(ns, &proto.Message{Kind: proto.KindHeartbeat}); err != nil {
		t.Fatalf("heartbeat after rejection: %v", err)
	}
	if v := metricValue(met, "netcluster_reconnects_total", "n0"); v != 1 {
		t.Errorf("%v connects; the session should have survived", v)
	}
}

func TestConnectTimesOutOnMuteServer(t *testing.T) {
	// A listener that accepts and then says nothing: hello must hit the
	// per-attempt deadline, not hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	cfg := Config{Fvsst: testFvsst(), Budget: units.Watts(500)}
	fastRetry(&cfg)
	c, err := NewCoordinator(cfg, NodeSpec{Name: "mute", Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Connect(); err == nil {
		t.Fatal("connected to a mute server")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("mute connect took %v; deadline did not bound it", elapsed)
	}
}

func TestTimeoutRetryAndRecovery(t *testing.T) {
	a0, _ := startAgent(t, "n0", 1, 0, nil)
	fabric := faultnet.New(3)
	met := NewMetrics()
	cfg := Config{Fvsst: testFvsst(), Budget: units.Watts(500), Dialer: fabric, Metrics: met, MissK: 3}
	fastRetry(&cfg)
	cfg.RPCTimeout = 30 * time.Millisecond
	c, err := NewCoordinator(cfg, NodeSpec{Name: "n0", Addr: a0.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One healthy round establishes an acknowledged actuation — the
	// node's charge while silent.
	if err := c.RunRound(); err != nil {
		t.Fatal(err)
	}
	// Black-hole every frame: the counter poll times out, the retry's
	// redial+hello times out too, and the round charges the node.
	fabric.SetPolicy("n0", faultnet.Policy{DropProb: 1})
	if err := c.RunRound(); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(met, "netcluster_rpc_timeouts_total", "n0", proto.KindCounterRequest); v < 1 {
		t.Errorf("%v timeouts recorded", v)
	}
	if v := metricValue(met, "netcluster_rpc_retries_total", "n0", proto.KindCounterRequest); v < 1 {
		t.Errorf("%v retries recorded", v)
	}
	if v := metricValue(met, "netcluster_rpc_failures_total", "n0", proto.KindCounterRequest); v != 1 {
		t.Errorf("%v failures recorded", v)
	}
	if d := c.Decisions()[1]; d.Reserved == 0 || d.Charged > d.Budget {
		t.Errorf("silent node not charged: reserved %v, charged %v/%v", d.Reserved, d.Charged, d.Budget)
	}

	// Faults lifted: the next round reconnects and schedules normally.
	fabric.SetPolicy("n0", faultnet.Policy{})
	if err := c.RunRound(); err != nil {
		t.Fatal(err)
	}
	if d := c.Decisions()[2]; d.Reserved != 0 || !d.BudgetMet {
		t.Errorf("recovered round still reserves %v", d.Reserved)
	}
	if v := metricValue(met, "netcluster_reconnects_total", "n0"); v < 2 {
		t.Errorf("%v connects; recovery should have redialled", v)
	}
	if st := c.Status()[0]; st.Degraded || st.Missed != 0 {
		t.Errorf("recovered node still marked %+v", st)
	}
}

func TestDuplicatedFramesAreDiscarded(t *testing.T) {
	a0, _ := startAgent(t, "n0", 1, 0, nil)
	fabric := faultnet.New(5)
	// Every request is transmitted twice: the agent answers twice with
	// the same ID, and the coordinator must discard the echoes instead of
	// mistaking them for later responses.
	fabric.SetPolicy("n0", faultnet.Policy{DupProb: 1})
	cfg := Config{Fvsst: testFvsst(), Budget: units.Watts(500), Dialer: fabric}
	fastRetry(&cfg)
	c, err := NewCoordinator(cfg, NodeSpec{Name: "n0", Addr: a0.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range c.Decisions() {
		if !d.BudgetMet || d.Reserved != 0 {
			t.Errorf("t=%v under duplication: charged %v/%v, reserved %v", d.At, d.Charged, d.Budget, d.Reserved)
		}
	}
}

// TestPartitionDegradeRejoinBudgetSafety is the acceptance scenario in
// miniature: three nodes, the budget drops 900 W → 600 W while one node
// is partitioned, and the invariant under test is that the power charged
// against the budget — live assignments plus the worst-case reservation
// for the silent node — never exceeds it.
func TestPartitionDegradeRejoinBudgetSafety(t *testing.T) {
	sink := &eventLog{}
	a0, _ := startAgent(t, "n0", 1, 0, nil)
	a1, _ := startAgent(t, "n1", 2, 0, nil)
	a2, _ := startAgent(t, "n2", 3, 0, nil)
	fabric := faultnet.New(9)
	source, err := power.NewBudgetSchedule(units.Watts(900),
		power.BudgetEvent{At: 0.25, Budget: units.Watts(600)})
	if err != nil {
		t.Fatal(err)
	}
	met := NewMetrics()
	cfg := Config{
		Fvsst:   testFvsst(),
		Budget:  units.Watts(900),
		Source:  source,
		MissK:   2,
		Seed:    9,
		Dialer:  fabric,
		Sink:    sink,
		Metrics: met,
	}
	fastRetry(&cfg)
	c, err := NewCoordinator(cfg,
		NodeSpec{Name: "n0", Addr: a0.Addr()},
		NodeSpec{Name: "n1", Addr: a1.Addr()},
		NodeSpec{Name: "n2", Addr: a2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := c.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(2) // healthy at 900 W
	fabric.Partition("n1")
	run(3) // misses accumulate; budget drops to 600 W mid-partition
	st := c.Status()[1]
	if !st.Degraded {
		t.Fatalf("n1 not degraded after %d missed rounds: %+v", st.Missed, st)
	}
	maxCharge := units.Watts(4 * 140)
	if st.ChargedIfSilent <= 0 || st.ChargedIfSilent >= maxCharge {
		t.Errorf("silent charge %v; want a real last actuation below the %v table max", st.ChargedIfSilent, maxCharge)
	}
	fabric.Heal("n1")
	run(2) // rejoin and reschedule

	decs := c.Decisions()
	if len(decs) != 7 {
		t.Fatalf("%d decisions", len(decs))
	}
	sawDegraded := false
	for _, d := range decs {
		if d.Charged > d.Budget {
			t.Errorf("t=%v charged %v over budget %v (reserved %v, degraded %v)",
				d.At, d.Charged, d.Budget, d.Reserved, d.Degraded)
		}
		if len(d.Degraded) > 0 {
			sawDegraded = true
			if d.Degraded[0] != "n1" || d.Reserved == 0 {
				t.Errorf("t=%v degraded %v reserved %v", d.At, d.Degraded, d.Reserved)
			}
		}
	}
	if !sawDegraded {
		t.Error("no decision recorded the degraded node")
	}
	if decs[0].Budget != units.Watts(900) || decs[6].Budget != units.Watts(600) {
		t.Errorf("budget trajectory %v → %v", decs[0].Budget, decs[6].Budget)
	}
	if decs[3].Trigger != "budget-change" {
		t.Errorf("round at t=%v triggered by %q", decs[3].At, decs[3].Trigger)
	}

	// Trace: one degrade, one rejoin, in that order, both naming n1.
	var transitions []obs.Event
	for _, e := range sink.all() {
		if e.Type == obs.EventDegrade || e.Type == obs.EventRejoin {
			transitions = append(transitions, e)
		}
	}
	if len(transitions) != 2 || transitions[0].Type != obs.EventDegrade || transitions[1].Type != obs.EventRejoin {
		t.Fatalf("transition trace %+v", transitions)
	}
	for _, e := range transitions {
		if e.Node != "n1" {
			t.Errorf("%s event names %q", e.Type, e.Node)
		}
	}
	if st := c.Status()[1]; st.Degraded || !st.Connected {
		t.Errorf("n1 did not rejoin: %+v", st)
	}
	if v := metricValue(met, "netcluster_node_transitions_total", "n1", "degrade"); v != 1 {
		t.Errorf("%v degrade transitions", v)
	}
	if v := metricValue(met, "netcluster_node_transitions_total", "n1", "rejoin"); v != 1 {
		t.Errorf("%v rejoin transitions", v)
	}

	// A partitioned node's simulation clock froze: it only advances when
	// the coordinator polls it, so it ends behind the healthy nodes.
	if a1.Now() >= a0.Now() {
		t.Errorf("partitioned node clock %v did not freeze (healthy at %v)", a1.Now(), a0.Now())
	}
}

func TestConnectRejectsQuantumMismatch(t *testing.T) {
	a0, _ := startAgent(t, "n0", 1, 0, nil)
	mcfg := quietMachineConfig(2)
	mcfg.Quantum = 0.005
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	odd, err := NewAgent(AgentConfig{Name: "odd", M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := odd.Start(); err != nil {
		t.Fatal(err)
	}
	defer odd.Close()
	c, err := NewCoordinator(Config{Fvsst: testFvsst(), Budget: units.Watts(500)},
		NodeSpec{Name: "n0", Addr: a0.Addr()}, NodeSpec{Name: "odd", Addr: odd.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Connect(); err == nil {
		t.Fatal("mixed-quantum cluster accepted")
	}
}

// legacyDialer dials the real transport but, while on, hides one node's
// codec list from the coordinator: the hello-ack a pre-bin1 agent sends.
type legacyDialer struct {
	node string
	on   atomic.Bool
}

func (d *legacyDialer) Dial(node, addr string, timeout time.Duration) (proto.Conn, error) {
	c, err := wire.Dial(addr, timeout)
	if err != nil || node != d.node || !d.on.Load() {
		return c, err
	}
	return legacyConn{c}, nil
}

type legacyConn struct{ proto.Conn }

func (c legacyConn) Recv() (*proto.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Capabilities != nil {
		m.Capabilities.Codecs = nil
	}
	return m, err
}

// TestHandshakeRejectsPeerWithoutBin1: hot frames are bin1 or nothing. A
// peer whose capabilities do not advertise the codec fails the handshake
// with an AgentError naming it — at Connect outright, on a rejoin every
// round — and is charged its worst case like any silent node; the
// coordinator never polls or actuates it over JSON.
func TestHandshakeRejectsPeerWithoutBin1(t *testing.T) {
	a0, _ := startAgent(t, "n0", 1, 0, nil)
	a1, _ := startAgent(t, "n1", 2, 0, nil)
	dialer := &legacyDialer{node: "n1"}
	dialer.on.Store(true)
	cfg := Config{Fvsst: testFvsst(), Budget: units.Watts(500), MissK: 2, Seed: 3, Dialer: dialer}
	fastRetry(&cfg)
	c, err := NewCoordinator(cfg, NodeSpec{Name: "n0", Addr: a0.Addr()}, NodeSpec{Name: "n1", Addr: a1.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ae *AgentError
	if err := c.Connect(); !errors.As(err, &ae) || ae.Node != "n1" {
		t.Fatalf("Connect against a peer without %s: %v, want an AgentError naming n1", wire.CodecName, err)
	}

	// The same peer, upgraded: two healthy rounds, then it comes back from
	// a dropped session as its old self.
	dialer.on.Store(false)
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	frozen, held := a1.Now(), c.Status()[1].ChargedIfSilent
	dialer.on.Store(true)
	c.nodes[1].conn.Close()
	c.nodes[1].conn = nil
	for i := 0; i < cfg.MissK; i++ {
		if err := c.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for k, d := range c.Decisions()[2:] {
		if d.Acked[1] || d.NodeCharged[1] != held || d.Reserved != held {
			t.Errorf("legacy round %d: acked %v, charged %v, reserved %v; want unacked at the worst case %v",
				k, d.Acked[1], d.NodeCharged[1], d.Reserved, held)
		}
		if d.Charged > d.Budget {
			t.Errorf("legacy round %d: charged %v over budget %v", k, d.Charged, d.Budget)
		}
		for _, a := range d.Assignments {
			if a.Proc.Node == 1 {
				t.Fatalf("legacy round %d: scheduled %+v on the rejected peer", k, a)
			}
		}
	}
	if st := c.Status()[1]; st.Connected || !st.Degraded {
		t.Errorf("rejected peer: connected %v, degraded %v after %d missed rounds", st.Connected, st.Degraded, cfg.MissK)
	}
	if a1.Now() != frozen {
		t.Errorf("rejected peer advanced from %v to %v: it was polled over JSON", frozen, a1.Now())
	}
	if a0.Now() <= frozen {
		t.Errorf("healthy peer at %v did not run on past %v", a0.Now(), frozen)
	}
}

func TestAgentFailsafeFloorsCPUs(t *testing.T) {
	sink := &obs.Buffer{}
	a, m := startAgent(t, "n0", 1, 60*time.Millisecond, sink)
	// The watchdog floors the CPUs before it emits the event; n0 is the
	// only agent on the sink.
	tripped := func() bool { return sink.Count(obs.EventFailsafe, "") > 0 }
	deadline := time.Now().Add(2 * time.Second)
	for !tripped() {
		if time.Now().After(deadline) {
			t.Fatal("failsafe never tripped: no failsafe trace event")
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.Close()
	fMin := m.Config().Table.MinFrequency()
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		if got := m.EffectiveFrequency(cpu); got != fMin {
			t.Errorf("cpu %d at %v after failsafe, want floor %v", cpu, got, fMin)
		}
	}
}
