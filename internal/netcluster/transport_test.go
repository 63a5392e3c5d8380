package netcluster

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/netcluster/faultnet"
	"repro/internal/netcluster/proto"
	"repro/internal/netcluster/wire"
	"repro/internal/units"
	"repro/internal/workload"
)

// pipeWorld is a bin1 control plane over in-process agents: the shape the
// bench's round workloads run. Each tier dials through its own PipeDialer,
// so top counts the frames the flat coordinator (or the root) exchanges
// and leaf those the relays exchange with the agents (zero when flat).
type pipeWorld struct {
	fleet        *Fleet
	agents       []*Agent
	machines     []*machine.Machine
	top, leaf    wire.Stats
	topPD, agtPD *PipeDialer // where the relays and the agents are registered
}

// newPipeWorld builds n unstarted agents of cpus CPUs each — the four paper
// applications cycled over the CPUs and looping forever — and connects a
// fleet over them (relays = 0: flat) at 40 W per CPU, so Step 2 has
// demotions to make.
func newPipeWorld(tb testing.TB, n, cpus, relays int) *pipeWorld {
	tb.Helper()
	return newTunedPipeWorld(tb, n, cpus, relays, nil)
}

// newTunedPipeWorld is newPipeWorld with each tier's Config passed through
// tune (group as in NewFleet) before the fleet connects: the place to put a
// fault fabric over w.topPD or w.agtPD, or to shorten the deadlines.
func newTunedPipeWorld(tb testing.TB, n, cpus, relays int, tune func(w *pipeWorld, cfg *Config, group int)) *pipeWorld {
	tb.Helper()
	w := &pipeWorld{agents: make([]*Agent, n), machines: make([]*machine.Machine, n)}
	topPD, leafPD := NewPipeDialer(&w.top), NewPipeDialer(&w.leaf)
	agentPD := leafPD
	if relays == 0 {
		agentPD = topPD
	}
	w.topPD, w.agtPD = topPD, agentPD
	progs := []workload.Program{workload.Gzip(1), workload.Gap(1), workload.Mcf(1), workload.Health(1)}
	for i := range progs {
		progs[i].Loops = -1
	}
	specs := make([]NodeSpec, n)
	for i := range specs {
		mcfg := machine.P630Config()
		mcfg.NumCPUs = cpus
		mcfg.Seed = int64(1000 + i)
		m, err := machine.New(mcfg)
		if err != nil {
			tb.Fatal(err)
		}
		for cpu := 0; cpu < cpus; cpu++ {
			mix, err := workload.NewMix(progs[(i*cpus+cpu)%len(progs)])
			if err != nil {
				tb.Fatal(err)
			}
			if err := m.SetMix(cpu, mix); err != nil {
				tb.Fatal(err)
			}
		}
		a, err := NewAgent(AgentConfig{Name: nodeName(i), M: m})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { a.Close() })
		agentPD.Register(nodeName(i), a)
		w.agents[i], w.machines[i], specs[i] = a, m, NodeSpec{Name: nodeName(i), Addr: nodeName(i)}
	}
	fleet, err := NewFleet(specs, relays, topPD, func(name string, group int) Config {
		cfg := Config{
			Name: name, Fvsst: testFvsst(), Budget: units.Watts(40 * float64(n*cpus)),
			RPCTimeout: 30 * time.Second, Seed: int64(group + 2), Dialer: leafPD,
		}
		if group < 0 {
			cfg.Dialer = topPD
		}
		if tune != nil {
			tune(w, &cfg, group)
		}
		return cfg
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(fleet.Close)
	w.fleet = fleet
	return w
}

// run drives rounds that must all be healthy: in budget, nothing reserved.
func (w *pipeWorld) run(tb testing.TB, rounds int) {
	tb.Helper()
	for i := 0; i < rounds; i++ {
		r, err := w.fleet.RunRound()
		if err != nil {
			tb.Fatal(err)
		}
		if !r.BudgetMet || r.Reserved != 0 {
			tb.Fatalf("round %d: charged %v of %v, reserved %v", i, r.Charged, r.Budget, r.Reserved)
		}
	}
}

// TestClosedAgentIsNotScheduled: over pipes as over TCP, an agent that
// closed stops answering — the redial finds nobody, the node is charged
// its worst case and its machine no longer advances.
func TestClosedAgentIsNotScheduled(t *testing.T) {
	w := newPipeWorld(t, 2, 2, 0)
	w.run(t, 1)
	w.agents[1].Close()
	stopped := w.machines[1].Now()

	if _, err := w.fleet.RunRound(); err != nil {
		t.Fatal(err)
	}
	d := w.fleet.Leaves()[0][1]
	if !d.Acked[0] || d.Acked[1] {
		t.Errorf("acked %v, want the live node only", d.Acked)
	}
	if d.Reserved <= 0 || d.NodeCharged[1] != d.Reserved {
		t.Errorf("closed node charged %v, reserved %v; want its worst case held", d.NodeCharged[1], d.Reserved)
	}
	if d.Charged > d.Budget {
		t.Errorf("charged %v over budget %v", d.Charged, d.Budget)
	}
	if got := w.machines[1].Now(); got != stopped {
		t.Errorf("closed agent's machine advanced %v → %v", stopped, got)
	}
	if live := w.machines[0].Now(); live <= stopped {
		t.Errorf("live agent's machine stuck at %v", live)
	}
}

// TestClosedRelayIsNotScheduled is the same contract one tier up: a closed
// relay hangs up on the root's redial and its subtree is held frozen.
func TestClosedRelayIsNotScheduled(t *testing.T) {
	w := newPipeWorld(t, 4, 1, 2)
	w.run(t, 1)
	w.fleet.relays[1].Close()
	stopped := w.machines[3].Now()

	r, err := w.fleet.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	g := w.fleet.root.RootDecisions()[1].Grants
	if !g[0].Acked || g[1].Acked {
		t.Errorf("grants acked %v/%v, want the live relay only", g[0].Acked, g[1].Acked)
	}
	if r.Reserved <= 0 || r.Charged > r.Budget {
		t.Errorf("reserved %v, charged %v of %v", r.Reserved, r.Charged, r.Budget)
	}
	if got := w.machines[3].Now(); got != stopped {
		t.Errorf("closed relay's subtree advanced %v → %v", stopped, got)
	}
}

// TestRoundFrameCount pins what a fault-free round puts on the wire: two
// binary requests per peer at each tier (counters + actuate below,
// demand + grant at a root) and their two answers — no liveness probe
// beside them.
func TestRoundFrameCount(t *testing.T) {
	for _, tc := range []struct {
		name              string
		agents, relays    int
		wantTop, wantLeaf uint64
	}{
		{"flat", 6, 0, 2 * 6, 0},
		{"tree", 6, 2, 2 * 2, 2 * 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newPipeWorld(t, tc.agents, 1, tc.relays)
			w.run(t, 2)
			top0, leaf0 := w.top.Snapshot(), w.leaf.Snapshot()
			w.run(t, 1)
			top1, leaf1 := w.top.Snapshot(), w.leaf.Snapshot()
			for _, c := range []struct {
				tier      string
				got, want uint64
			}{
				{"top requests", top1.BinFramesOut - top0.BinFramesOut, tc.wantTop},
				{"top answers", top1.BinFramesIn - top0.BinFramesIn, tc.wantTop},
				{"leaf requests", leaf1.BinFramesOut - leaf0.BinFramesOut, tc.wantLeaf},
				{"leaf answers", leaf1.BinFramesIn - leaf0.BinFramesIn, tc.wantLeaf},
				{"top JSON frames", top1.JSONFramesOut - top0.JSONFramesOut + top1.JSONFramesIn - top0.JSONFramesIn, 0},
				{"leaf JSON frames", leaf1.JSONFramesOut - leaf0.JSONFramesOut + leaf1.JSONFramesIn - leaf0.JSONFramesIn, 0},
			} {
				if c.got != c.want {
					t.Errorf("%s: %d in one round, want %d", c.tier, c.got, c.want)
				}
			}
		})
	}
}

// waitGoroutines polls until at most want goroutines remain: the serve
// loops at the far end of a closed pipe exit on their own schedule.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want at most %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerLifecycle: the per-connection workers start once, not once a
// round; Close stops them, and a round after Close brings them and the
// sessions back. In the tree a relay's sub-coordinator is closed mid-run
// too: its round scratch, request messages and the agents' reply scratch
// live through the Close and the redial, and every round still decides
// what the same fleet decides without the Close.
func TestWorkerLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name           string
		agents, relays int
	}{{"flat", 8, 0}, {"tree", 8, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			// Unstarted agents run no goroutine, so this is the figure with
			// no control plane at all.
			before := runtime.NumGoroutine()
			var ref *pipeWorld
			if tc.relays > 0 {
				ref = newPipeWorld(t, tc.agents, 1, tc.relays)
				ref.run(t, 60)
				ref.fleet.Close()
			}
			w := newPipeWorld(t, tc.agents, 1, tc.relays)

			w.run(t, 1)
			running := runtime.NumGoroutine()
			if got, want := len(w.fleet.top.work), len(w.fleet.top.nodes); got != want {
				t.Fatalf("%d workers for %d top-tier peers after a round", got, want)
			}
			w.run(t, 50)
			if now := runtime.NumGoroutine(); now > running {
				t.Errorf("goroutines grew %d → %d over 50 rounds", running, now)
			}

			// The top tier alone: its workers stop with Close and the next
			// round restarts them and redials.
			w.fleet.top.Close()
			if w.fleet.top.work != nil {
				t.Error("Close left the worker channels in place")
			}
			w.run(t, 2)
			waitGoroutines(t, running, "after a Close and two more rounds")

			if ref != nil {
				// One relay's subtree alone: the next demand restarts its
				// workers and redials its agents.
				w.fleet.relays[0].coord.Close()
				w.run(t, 7)
				waitGoroutines(t, running, "after a relay's Close and seven more rounds")
				sameDecisions(t, w.fleet.Leaves(), ref.fleet.Leaves())
			}

			w.fleet.Close()
			waitGoroutines(t, before, "after Fleet.Close")
		})
	}
}

// sameDecisions fails on the first round whose leaf decision differs
// between got and want, field for field.
func sameDecisions(t *testing.T, got, want [][]Decision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d leaves, want %d", len(got), len(want))
	}
	for j := range want {
		if len(got[j]) != len(want[j]) {
			t.Fatalf("leaf %d: %d decisions, want %d", j, len(got[j]), len(want[j]))
		}
		for r := range want[j] {
			if !reflect.DeepEqual(got[j][r], want[j][r]) {
				t.Fatalf("leaf %d round %d: decision %+v, want %+v", j, r, got[j][r], want[j][r])
			}
		}
	}
}

// TestSendRetainsNoMessage pins the proto.Conn contract the coordinator's
// per-node request and the servers' per-session reply reuse rely on: Send
// is done with m when it returns. The sender overwrites everything the
// message points to right after Send, before the peer reads a byte; the
// peer must decode the original — both copies of it when faultnet
// duplicates it after a delay — in either codec.
func TestSendRetainsNoMessage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wrap   func(proto.Conn) proto.Conn
		copies int
	}{
		{"wire", func(c proto.Conn) proto.Conn { return c }, 1},
		{"faultnet", func(c proto.Conn) proto.Conn {
			n := faultnet.New(1)
			if err := n.SetPolicy("peer", faultnet.Policy{DupProb: 1, Delay: time.Millisecond}); err != nil {
				t.Fatal(err)
			}
			return n.Wrap("peer", c)
		}, 2},
	} {
		for _, binary := range []bool{false, true} {
			a, b := newPipe()
			tx := tc.wrap(wire.NewConn(a, wire.Options{}))
			rx := wire.NewConn(b, wire.Options{Mirror: true})
			tx.SetBinary(binary)
			trace := proto.TraceContext{PassID: 3}
			act := proto.Actuate{FreqsMHz: []float64{250, 1000}}
			m := &proto.Message{Kind: proto.KindActuate, ID: 7, Trace: &trace, Actuate: &act}
			if err := tx.Send(m); err != nil {
				t.Fatalf("%s binary=%v: send: %v", tc.name, binary, err)
			}
			*m = proto.Message{Kind: proto.KindHeartbeat, ID: 8, Trace: &trace, Actuate: &act}
			trace.PassID, act.FreqsMHz[0], act.FreqsMHz[1] = 4, 500, 500
			rx.SetDeadline(time.Now().Add(5 * time.Second))
			for k := 0; k < tc.copies; k++ {
				got, err := rx.Recv()
				if err != nil {
					t.Fatalf("%s binary=%v copy %d: recv: %v", tc.name, binary, k, err)
				}
				if got.Kind != proto.KindActuate || got.ID != 7 || got.Trace == nil || got.Trace.PassID != 3 ||
					got.Actuate == nil || !reflect.DeepEqual(got.Actuate.FreqsMHz, []float64{250, 1000}) {
					t.Errorf("%s binary=%v copy %d: peer decoded %+v (trace %+v, actuate %+v), not the message as sent",
						tc.name, binary, k, got, got.Trace, got.Actuate)
				}
			}
			a.Close()
			b.Close()
		}
	}
}

// TestRoundAllocsDoNotGrowWithFleet pins what a steady-state round
// allocates: only what the decision logs keep (each coordinator's
// Assignments, NodeCharged and Acked, the root's Grants and the logs'
// own growth) and a fan-out closure per phase. Every other buffer, from
// the request and reply messages to the scheduler inputs and the root's
// curve copies, is reused, so the count per round does not depend on how
// many agents answer.
func TestRoundAllocsDoNotGrowWithFleet(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cpus, relays int
		agents       [2]int
	}{
		{"flat", 4, 0, [2]int{16, 64}},
		{"tree", 1, 4, [2]int{100, 400}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var allocs [2]float64
			for k, n := range tc.agents {
				w := newPipeWorld(t, n, tc.cpus, tc.relays)
				w.run(t, 20) // full reports, then grown buffers
				allocs[k] = testing.AllocsPerRun(20, func() { w.run(t, 1) })
				w.fleet.Close()
			}
			t.Logf("%d agents: %.0f allocations per round; %d agents: %.0f", tc.agents[0], allocs[0], tc.agents[1], allocs[1])
			if allocs[1] > allocs[0] {
				t.Errorf("allocations per round grew with the fleet: %.0f at %d agents, %.0f at %d",
					allocs[0], tc.agents[0], allocs[1], tc.agents[1])
			}
			if allocs[1] > 100 {
				t.Errorf("%.0f allocations per round at %d agents, want at most 100", allocs[1], tc.agents[1])
			}
		})
	}
}

// TestWorstCasePhase pins the bound against a hand-computed value: one
// RPC's worth of attempts, not two.
func TestWorstCasePhase(t *testing.T) {
	cfg := Config{
		RPCTimeout: 40 * time.Millisecond,
		Retries:    3,
		BackoffMax: 7 * time.Millisecond,
	}
	// 4 attempts of (40 dial + 40 hello + 40 request) + 3 backoffs of 7.
	if got, want := cfg.WorstCasePhase(), 501*time.Millisecond; got != want {
		t.Errorf("WorstCasePhase %v, want %v", got, want)
	}
	// The daemon's shape: only -rpc-timeout set, the rest defaulted.
	if got, want := (Config{RPCTimeout: 100 * time.Millisecond}).WorstCasePhase(), 1400*time.Millisecond; got != want {
		t.Errorf("WorstCasePhase at the daemon defaults %v, want %v", got, want)
	}
}

// BenchmarkTreeRound is one relay-tree round at a fifth of the bench's
// tree-1k: 200 one-CPU agents behind 4 relays under a root, bin1 over
// pipes, endless programs. An iteration is one Fleet.RunRound.
func BenchmarkTreeRound(b *testing.B) {
	w := newPipeWorld(b, 200, 1, 4)
	w.run(b, 20) // full reports, pool and heap sizing
	b.ReportAllocs()
	b.ResetTimer()
	w.run(b, b.N)
}
