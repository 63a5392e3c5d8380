package netcluster

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/netcluster/faultnet"
	"repro/internal/netcluster/proto"
	"repro/internal/netcluster/wire"
	"repro/internal/units"
)

// servedTier is one server under test: an agent, or a relay over a
// one-agent subtree reached through its own PipeDialer.
type servedTier struct {
	name string
	*server
	close func() error
	coord *Coordinator // the relay's sub-coordinator; nil for an agent
	// valid are well-formed hot requests for the tier, in protocol order.
	valid []*proto.Message
}

func newServedTier(t *testing.T, tier string) servedTier {
	t.Helper()
	m, err := machine.New(quietMachineConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(AgentConfig{Name: "leaf", M: m})
	if err != nil {
		t.Fatal(err)
	}
	window := &proto.CounterRequest{AdvanceQuanta: testFvsst().SchedulePeriods, WindowQuanta: testFvsst().SchedulePeriods}
	if tier == "agent" {
		floor := make([]float64, m.NumCPUs())
		for i := range floor {
			floor[i] = m.Config().Table.MinFrequency().MHz()
		}
		return servedTier{name: "leaf", server: &a.server, close: a.Close, valid: []*proto.Message{
			{Kind: proto.KindCounterRequest, CounterRequest: window},
			{Kind: proto.KindActuate, Actuate: &proto.Actuate{FreqsMHz: make([]float64, m.NumCPUs())}}, // 0 MHz: rejected
			{Kind: proto.KindActuate, Actuate: &proto.Actuate{FreqsMHz: floor}},
		}}
	}
	t.Cleanup(func() { a.Close() })
	below := NewPipeDialer(nil)
	spec, err := a.Listen(below)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewCoordinator(Config{Fvsst: testFvsst(), Budget: units.Watts(400), Dialer: below}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	r, err := NewRelay(RelayConfig{Name: "mid"}, sub)
	if err != nil {
		t.Fatal(err)
	}
	return servedTier{name: "mid", server: &r.server, close: r.Close, coord: sub, valid: []*proto.Message{
		{Kind: proto.KindGrant, Grant: &proto.Grant{BudgetW: 100}}, // no demand before it: rejected
		{Kind: proto.KindDemandRequest, CounterRequest: window},
		{Kind: proto.KindGrant, Grant: &proto.Grant{BudgetW: 200}},
	}}
}

// TestServerLifecycle drives the one serving side through both tiers that
// embed it and both ways of reaching it.
func TestServerLifecycle(t *testing.T) {
	for _, tier := range []string{"agent", "relay"} {
		for _, transport := range []string{"tcp", "pipe"} {
			t.Run(tier+"/"+transport, func(t *testing.T) {
				before := runtime.NumGoroutine()
				s := newServedTier(t, tier)
				var pd *PipeDialer
				if transport == "pipe" {
					pd = NewPipeDialer(nil)
				}
				spec, err := s.Listen(pd)
				if err != nil {
					t.Fatal(err)
				}
				if spec.Name != s.name || (pd == nil) != (spec.Addr == s.Addr()) {
					t.Fatalf("Listen returned %+v; Addr() %q", spec, s.Addr())
				}
				dial := func() proto.Conn {
					t.Helper()
					var c proto.Conn
					if pd != nil {
						c, err = pd.DialTransport(spec.Addr, time.Second)
					} else {
						c, err = wire.Dial(spec.Addr, time.Second)
					}
					if err != nil {
						t.Fatal(err)
					}
					c.SetDeadline(time.Now().Add(5 * time.Second))
					return c
				}

				// Every reply kind carries the stamps, errors included.
				c := dial()
				reqs := append([]*proto.Message{
					{Kind: proto.KindHello, Hello: &proto.Hello{Coordinator: "test"}},
					{Kind: proto.KindHeartbeat},
					{Kind: proto.KindCounterRequest}, // no payload, or not this tier's kind
					{Kind: proto.KindDemandRequest},
					{Kind: "no-such-kind"},
				}, s.valid...)
				kinds := map[string]bool{}
				for i, req := range reqs {
					req.ID = uint64(100 + i)
					req.Trace = &proto.TraceContext{PassID: uint64(7 + i)}
					if err := c.Send(req); err != nil {
						t.Fatal(err)
					}
					resp, err := c.Recv()
					if err != nil {
						t.Fatalf("%s: %v", req.Kind, err)
					}
					kinds[resp.Kind] = true
					if resp.ID != req.ID || resp.Node != s.name || resp.Trace == nil || resp.Trace.PassID != req.Trace.PassID || resp.ServiceSec <= 0 {
						t.Errorf("%s answered %s with id %d node %q trace %+v service %v; want id %d node %q pass %d and a service time",
							req.Kind, resp.Kind, resp.ID, resp.Node, resp.Trace, resp.ServiceSec, req.ID, s.name, req.Trace.PassID)
					}
				}
				want := []string{proto.KindHelloAck, proto.KindHeartbeatAck, proto.KindError, proto.KindCounterReport, proto.KindActuateAck}
				if tier == "relay" {
					want = []string{proto.KindHelloAck, proto.KindHeartbeatAck, proto.KindError, proto.KindDemandReport, proto.KindGrantAck}
				}
				for _, k := range want {
					if !kinds[k] {
						t.Errorf("no %s among the replies %v", k, kinds)
					}
				}

				// A peer that connected and never said hello is parked in Recv.
				parked := dial()
				deadline := time.Now().Add(5 * time.Second)
				for live := 0; live < 2; {
					if time.Now().After(deadline) {
						t.Fatalf("%d sessions registered, want 2", live)
					}
					time.Sleep(time.Millisecond)
					s.smu.Lock()
					live = len(s.conns)
					s.smu.Unlock()
				}
				done := make(chan error, 1)
				go func() { done <- s.close() }()
				select {
				case err := <-done:
					if err != nil {
						t.Errorf("Close: %v", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Close hung on a session parked in Recv")
				}
				if _, err := parked.Recv(); err == nil {
					t.Error("the parked session was answered instead of hung up")
				}
				c.Close()
				parked.Close()

				// Closing again is a no-op, for a relay's sub-coordinator
				// too: one reconnected since is left running.
				if s.coord != nil {
					if s.coord.work != nil || s.coord.nodes[0].conn != nil {
						t.Error("the first Close left the sub-coordinator connected")
					}
					s.coord.eachNode(func(int, *nodeState) {})
				}
				if err := s.close(); err != nil {
					t.Errorf("second Close: %v", err)
				}
				if s.coord != nil {
					if s.coord.work == nil {
						t.Error("the second Close closed the sub-coordinator again")
					}
					s.coord.Close()
				}

				// A connection arriving after Close is hung up unanswered.
				local, remote := net.Pipe()
				served := make(chan struct{})
				go func() { s.ServeConn(remote); close(served) }()
				late := wire.NewConn(local, wire.Options{})
				late.SetDeadline(time.Now().Add(5 * time.Second))
				go late.Send(&proto.Message{Kind: proto.KindHeartbeat, ID: 1})
				if resp, err := late.Recv(); err == nil {
					t.Errorf("closed server answered %s", resp.Kind)
				}
				late.Close()
				<-served
				if pd != nil {
					again := dial()
					go again.Send(&proto.Message{Kind: proto.KindHeartbeat, ID: 2})
					if resp, err := again.Recv(); err == nil {
						t.Errorf("closed server answered %s over the pipe dialer", resp.Kind)
					}
					again.Close()
				} else if c, err := wire.Dial(spec.Addr, time.Second); err == nil {
					c.Close()
					t.Error("closed server still accepts TCP connections")
				}
				if err := s.Start(); err == nil {
					t.Error("Start after Close succeeded")
				}
				waitGoroutines(t, before, "after Close")
			})
		}
	}
}

// TestSessionsReplyFromTheirOwnScratch: two sessions live at once on one
// tier each answer from their own reply scratch. Each sends the tier's hot
// requests in a loop from its own goroutine; under -race a reply buffer
// the tier shared would be written by one session's handle while the
// other session was still encoding from it.
func TestSessionsReplyFromTheirOwnScratch(t *testing.T) {
	for _, tier := range []string{"agent", "relay"} {
		t.Run(tier, func(t *testing.T) {
			s := newServedTier(t, tier)
			pd := NewPipeDialer(nil)
			spec, err := s.Listen(pd)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			var wg sync.WaitGroup
			for k := 0; k < 2; k++ {
				c, err := pd.DialTransport(spec.Addr, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				c.SetBinary(true)
				c.SetDeadline(time.Now().Add(10 * time.Second))
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer c.Close()
					for i := 0; i < 50; i++ {
						for j, valid := range s.valid {
							req := *valid
							req.ID = uint64(len(s.valid)*i + j + 1)
							if err := c.Send(&req); err != nil {
								t.Errorf("session %d: send: %v", k, err)
								return
							}
							resp, err := c.Recv()
							if err != nil {
								t.Errorf("session %d: recv: %v", k, err)
								return
							}
							if resp.ID != req.ID {
								t.Errorf("session %d: %s %d answered as %d", k, req.Kind, req.ID, resp.ID)
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestAddrBeforeStart: a server that never bound a listener — not started
// yet, or reached only through a PipeDialer — has no address, and asking
// for it is not a nil dereference.
func TestAddrBeforeStart(t *testing.T) {
	for _, tier := range []string{"agent", "relay"} {
		t.Run(tier, func(t *testing.T) {
			s := newServedTier(t, tier)
			defer s.close()
			if got := s.Addr(); got != "" {
				t.Errorf("Addr before Start %q, want empty", got)
			}
			if _, err := s.Listen(NewPipeDialer(nil)); err != nil {
				t.Fatal(err)
			}
			if got := s.Addr(); got != "" {
				t.Errorf("Addr of a pipe-registered server %q, want empty", got)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			if got := s.Addr(); got == "" {
				t.Error("Addr after Start is empty")
			}
		})
	}
}

// TestSilentChargeIsTheAckedLedger pins the one charge-while-silent on both
// tiers: a partitioned peer is held at exactly what it acknowledged last —
// a node's actuation at table power, a relay's GrantAck.ChargedW — and a
// peer that rejoins in a different shape at its full worst case.
func TestSilentChargeIsTheAckedLedger(t *testing.T) {
	for _, tc := range []struct {
		name   string
		relays int
		peer   string
	}{{"flat-node", 0, "n1"}, {"relay", 2, "relay1"}} {
		t.Run(tc.name, func(t *testing.T) {
			fabric := faultnet.New(3)
			w := newTunedPipeWorld(t, 4, 2, tc.relays, func(w *pipeWorld, cfg *Config, group int) {
				fastRetry(cfg)
				if group < 0 {
					fabric.SetTransport(w.topPD.DialTransport)
					cfg.Dialer = fabric
				}
			})
			w.run(t, 2)
			c := w.fleet.top
			ns := c.nodes[1]
			var acked units.Power
			if tc.relays == 0 {
				var err error
				if acked, err = fvsst.TotalTablePower(c.Status()[1].LastActuation, c.cfg.Fvsst.Table); err != nil {
					t.Fatal(err)
				}
			} else {
				acked = w.fleet.root.RootDecisions()[1].Grants[1].Charged
			}
			if acked <= 0 {
				t.Fatalf("peer acknowledged %v", acked)
			}

			silentRound := func(want units.Power, what string) {
				t.Helper()
				fabric.Partition(tc.peer)
				r, err := w.fleet.RunRound()
				if err != nil {
					t.Fatal(err)
				}
				if r.Reserved != want || c.Status()[1].ChargedIfSilent != want {
					t.Errorf("silent %s: reserved %v, charged-if-silent %v, want %s %v exactly",
						tc.peer, r.Reserved, c.Status()[1].ChargedIfSilent, what, want)
				}
				if r.Charged > r.Budget {
					t.Errorf("charged %v over budget %v", r.Charged, r.Budget)
				}
				fabric.Heal(tc.peer)
			}
			silentRound(acked, "the last acknowledged ledger")

			// The peer comes back with a different CPU count: what it
			// acknowledged before says nothing about what it can draw now.
			if tc.relays == 0 {
				mcfg := quietMachineConfig(9)
				mcfg.NumCPUs = 1
				m, err := machine.New(mcfg)
				if err != nil {
					t.Fatal(err)
				}
				a, err := NewAgent(AgentConfig{Name: tc.peer, M: m})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { a.Close() })
				w.topPD.Register(tc.peer, a)
			} else {
				sub, err := NewCoordinator(Config{Fvsst: testFvsst(), Budget: c.cfg.Budget, Dialer: w.agtPD},
					NodeSpec{Name: "n2", Addr: "n2"})
				if err != nil {
					t.Fatal(err)
				}
				w.fleet.relays[1].Close()
				if err := sub.Connect(); err != nil {
					t.Fatal(err)
				}
				r, err := NewRelay(RelayConfig{Name: tc.peer}, sub)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { r.Close() })
				w.topPD.Register(tc.peer, r)
			}
			if err := c.ensureConn(ns); err != nil {
				t.Fatal(err)
			}
			full := units.Watts(float64(ns.caps.NumCPUs) * ns.caps.MaxPowerW)
			if full == acked {
				t.Fatal("the reshaped peer's worst case equals the old ledger; the test shows nothing")
			}
			silentRound(full, "the reshaped peer's full worst case")
		})
	}
}

// TestFleetDerivesRootDeadline: NewFleet raises the root's per-attempt
// deadline to cover the relay tier's worst-case phase, whatever the caller
// passed. Every tier gets fvsst-cluster's shape — one RPC timeout, the rest
// defaulted — and one leaf is black-holed for a round: its relay spends
// three timeouts and two backoffs on it before answering the demand. A
// root that waits one timeout retries the demand, the relay advances its
// healthy leaf a second time and the round's grant is lost.
func TestFleetDerivesRootDeadline(t *testing.T) {
	const rpcTimeout = 40 * time.Millisecond
	fabric := faultnet.New(5)
	met := NewMetrics()
	w := newTunedPipeWorld(t, 4, 1, 2, func(w *pipeWorld, cfg *Config, group int) {
		cfg.RPCTimeout = rpcTimeout
		if group < 0 {
			cfg.Metrics = met
			return
		}
		fabric.SetTransport(w.agtPD.DialTransport)
		cfg.Dialer = fabric
	})
	sub := Config{RPCTimeout: rpcTimeout}
	if got, want := w.fleet.top.cfg.RPCTimeout, sub.WorstCasePhase(); got != want || want <= rpcTimeout {
		t.Fatalf("root deadline %v, want the relay tier's worst-case phase %v", got, want)
	}

	const blackholed = 1 // n1, under relay0 beside n0
	rounds := 0
	run := func(k int, drop float64) {
		t.Helper()
		if err := fabric.SetPolicy(nodeName(blackholed), faultnet.Policy{DropProb: drop}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			r, err := w.fleet.RunRound()
			if err != nil {
				t.Fatal(err)
			}
			if r.Charged > r.Budget {
				t.Errorf("round %d: charged %v over budget %v", rounds, r.Charged, r.Budget)
			}
			rounds++
		}
	}
	run(2, 0)
	run(1, 1)
	run(2, 0)

	for j, decs := range w.fleet.Leaves() {
		if len(decs) != rounds {
			t.Errorf("relay%d settled %d decisions in %d root rounds", j, len(decs), rounds)
		}
	}
	for k, d := range w.fleet.root.RootDecisions() {
		for _, g := range d.Grants {
			if !g.Acked {
				t.Errorf("round %d: %s did not acknowledge its grant", k, g.Relay)
			}
		}
	}
	top := w.fleet.top
	period := float64(top.cfg.Fvsst.SchedulePeriods) * top.quantum
	for i, m := range w.machines {
		want := float64(rounds) * period
		if i == blackholed {
			want -= period
		}
		if got := m.Now(); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("n%d advanced to %v in %d rounds, want %v", i, got, rounds, want)
		}
	}
	if v := metricValue(met, "netcluster_rpc_retries_total", "relay0", proto.KindDemandRequest); v != 0 {
		t.Errorf("root retried relay0's demand %v times", v)
	}
}
