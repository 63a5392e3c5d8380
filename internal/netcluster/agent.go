// Package netcluster is the networked cluster control plane: the paper's
// §5 coordinator/node split realised as an actual client/server protocol
// instead of the idealised in-process model of internal/cluster. Each
// node runs an Agent — wrapping its machine.Machine and counters.Sampler,
// serving counter snapshots and accepting frequency actuations over TCP —
// and one Coordinator runs the global two-step fvsst pass over the wire,
// with the failure semantics a real deployment needs: per-node deadlines,
// bounded retry with backoff and jitter, reconnection, and budget safety
// under silence (a node that stops answering is charged its worst-case
// table power until it rejoins). The scheduling algorithm itself is
// cluster.Core, shared with the in-process coordinator; this package only
// supplies the transport and the failure handling around it.
package netcluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/netcluster/proto"
	"repro/internal/netcluster/wire"
	"repro/internal/obs"
	"repro/internal/units"
)

// AgentConfig describes one node agent.
type AgentConfig struct {
	// Name identifies the node in the protocol and every trace.
	Name string
	// M is the node's machine. The agent owns it once started: all
	// stepping and actuation go through the agent's lock.
	M *machine.Machine
	// Addr is the TCP listen address; empty means loopback with an
	// OS-assigned port (the spawned-agent default).
	Addr string
	// HistoryQuanta bounds the sampler's per-CPU delta ring; 0 selects a
	// default generous enough for any coordinator window.
	HistoryQuanta int
	// FailsafeLease is the watchdog: after this much wall-clock silence
	// from the coordinator, the agent drops every CPU to the minimum
	// table frequency on its own, so a partitioned node can never draw
	// more than it was last told — and trends toward the floor. 0
	// disables the watchdog.
	FailsafeLease time.Duration
	// Sink receives agent-side trace events (failsafe trips). Nil
	// disables.
	Sink obs.Sink
}

// Agent serves one node's observation/actuation surface to the
// coordinator.
type Agent struct {
	cfg     AgentConfig
	ln      net.Listener
	quantum float64

	mu      sync.Mutex
	sampler *counters.Sampler
	// lease is the coordinator-silence watchdog (engine.Lease over the
	// wall clock), guarded by mu as the Lease itself is unsynchronized.
	// Nil when the failsafe is disabled.
	lease *engine.Lease
	conns map[proto.Conn]struct{}

	closed chan struct{}
	wg     sync.WaitGroup
}

// NewAgent validates the configuration and prepares the agent.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("netcluster: agent needs a name")
	}
	if cfg.M == nil {
		return nil, fmt.Errorf("netcluster: agent %s has no machine", cfg.Name)
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.HistoryQuanta == 0 {
		cfg.HistoryQuanta = 256
	}
	if cfg.FailsafeLease < 0 {
		return nil, fmt.Errorf("netcluster: agent %s negative failsafe lease", cfg.Name)
	}
	sampler, err := counters.NewSampler(cfg.M, cfg.HistoryQuanta)
	if err != nil {
		return nil, err
	}
	return &Agent{
		cfg:     cfg,
		quantum: cfg.M.Config().Quantum,
		sampler: sampler,
		conns:   make(map[proto.Conn]struct{}),
		closed:  make(chan struct{}),
	}, nil
}

// Start binds the listener and begins serving. Addr reports the bound
// address afterwards.
func (a *Agent) Start() error {
	ln, err := net.Listen("tcp", a.cfg.Addr)
	if err != nil {
		return fmt.Errorf("netcluster: agent %s listen: %w", a.cfg.Name, err)
	}
	a.ln = ln
	a.wg.Add(1)
	go a.acceptLoop()
	if a.cfg.FailsafeLease > 0 {
		lease, err := engine.NewLease(a.cfg.FailsafeLease, nil)
		if err != nil {
			return err
		}
		a.mu.Lock()
		a.lease = lease
		a.mu.Unlock()
		a.wg.Add(1)
		go a.watchdog()
	}
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (a *Agent) Addr() string { return a.ln.Addr().String() }

// Close stops serving and waits for the handler goroutines. A connection
// that reaches the agent afterwards is hung up on unanswered.
func (a *Agent) Close() error {
	a.mu.Lock()
	select {
	case <-a.closed:
		a.mu.Unlock()
		return nil
	default:
	}
	close(a.closed)
	// Unblock handlers parked in Recv: a coordinator that crashed or
	// errored out mid-handshake never closes its end.
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	var err error
	if a.ln != nil {
		err = a.ln.Close()
	}
	a.wg.Wait()
	return err
}

// Now returns the node's simulation time.
func (a *Agent) Now() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg.M.Now()
}

// FailsafeTripped reports whether the watchdog has fired since the last
// coordinator contact.
func (a *Agent) FailsafeTripped() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease != nil && a.lease.Tripped()
}

func (a *Agent) acceptLoop() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Mirror mode: the agent answers in whatever codec the
		// coordinator speaks, switching to binary on its first binary
		// frame. The codec differential's JSON oracle sees pure JSON.
		go a.serve(wire.NewConn(conn, wire.Options{Mirror: true}))
	}
}

// ServeConn serves one pre-established stream connection (e.g. one end of
// a net.Pipe) until it closes, with the same codec mirroring as accepted
// TCP connections. It blocks; run it on its own goroutine. Used by
// in-process fleets too large for per-agent TCP sockets. After Close it
// hangs up at once, as a closed listener refuses the dial.
func (a *Agent) ServeConn(conn net.Conn) {
	a.serve(wire.NewConn(conn, wire.Options{Mirror: true}))
}

// watchdog trips the failsafe after FailsafeLease of coordinator silence.
func (a *Agent) watchdog() {
	defer a.wg.Done()
	tick := time.NewTicker(a.cfg.FailsafeLease / 4)
	defer tick.Stop()
	for {
		select {
		case <-a.closed:
			return
		case <-tick.C:
		}
		a.mu.Lock()
		expired := a.lease.Expire()
		if expired {
			m := a.cfg.M
			fMin := m.Config().Table.MinFrequency()
			for cpu := 0; cpu < m.NumCPUs(); cpu++ {
				// The floor is always a valid setting; ignore per-CPU
				// errors so one bad CPU cannot keep the others hot.
				_ = m.SetFrequency(cpu, fMin)
			}
		}
		a.mu.Unlock()
		if expired && a.cfg.Sink != nil {
			a.cfg.Sink.Emit(obs.Event{
				Type:   obs.EventFailsafe,
				At:     a.Now(),
				Node:   a.cfg.Name,
				Detail: fmt.Sprintf("no coordinator contact for %v; CPUs floored", a.cfg.FailsafeLease),
			})
		}
	}
}

// touch records coordinator contact and re-arms the failsafe.
func (a *Agent) touch() {
	a.mu.Lock()
	if a.lease != nil {
		a.lease.Touch()
	}
	a.mu.Unlock()
}

// admit registers a new session unless the agent has closed. The closed
// check and wg.Add share a.mu with Close, so Add never races Close's Wait.
func (a *Agent) admit(c proto.Conn) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	select {
	case <-a.closed:
		return false
	default:
	}
	a.wg.Add(1)
	a.conns[c] = struct{}{}
	return true
}

func (a *Agent) serve(c proto.Conn) {
	if !a.admit(c) {
		c.Close()
		return
	}
	defer a.wg.Done()
	defer func() {
		a.mu.Lock()
		delete(a.conns, c)
		a.mu.Unlock()
		c.Close()
	}()
	for {
		req, err := c.Recv()
		if err != nil {
			return // connection gone; coordinator will redial
		}
		start := time.Now()
		a.touch()
		resp := a.handle(req)
		resp.ID = req.ID
		resp.Node = a.cfg.Name
		// Echo the request's trace context and report the handling time so
		// the coordinator can split its measured round-trip into wire time
		// and agent-side service/apply time (the rpc:* span breakdown).
		resp.Trace = req.Trace
		resp.ServiceSec = time.Since(start).Seconds()
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

// fail builds an error response.
func fail(format string, args ...any) *proto.Message {
	return &proto.Message{Kind: proto.KindError, Error: fmt.Sprintf(format, args...)}
}

func (a *Agent) handle(req *proto.Message) *proto.Message {
	switch req.Kind {
	case proto.KindHello:
		return a.handleHello()
	case proto.KindHeartbeat:
		return &proto.Message{Kind: proto.KindHeartbeatAck, Now: a.Now()}
	case proto.KindCounterRequest:
		if req.CounterRequest == nil {
			return fail("counter-request without payload")
		}
		return a.handleCounters(*req.CounterRequest)
	case proto.KindActuate:
		if req.Actuate == nil {
			return fail("actuate without payload")
		}
		return a.handleActuate(*req.Actuate)
	default:
		return fail("unknown kind %q", req.Kind)
	}
}

func (a *Agent) handleHello() *proto.Message {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.cfg.M
	table := m.Config().Table
	var freqs []float64
	for _, p := range table.Points() {
		freqs = append(freqs, p.F.MHz())
	}
	maxP, err := table.PowerAt(table.MaxFrequency())
	if err != nil {
		return fail("capabilities: %v", err)
	}
	return &proto.Message{
		Kind: proto.KindHelloAck,
		Now:  m.Now(),
		Capabilities: &proto.Capabilities{
			Node:        a.cfg.Name,
			NumCPUs:     m.NumCPUs(),
			QuantumSec:  a.quantum,
			FreqsMHz:    freqs,
			MaxPowerW:   maxP.W(),
			FailsafeSec: a.cfg.FailsafeLease.Seconds(),
			Codecs:      []string{wire.CodecName},
		},
	}
}

func (a *Agent) handleCounters(req proto.CounterRequest) *proto.Message {
	if req.AdvanceQuanta < 0 || req.AdvanceQuanta > 100000 {
		return fail("advance quanta %d out of range", req.AdvanceQuanta)
	}
	if req.WindowQuanta <= 0 {
		return fail("window quanta %d must be positive", req.WindowQuanta)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.cfg.M
	for i := 0; i < req.AdvanceQuanta; i++ {
		if err := m.StepQuantum(); err != nil {
			return fail("step: %v", err)
		}
		if err := a.sampler.Collect(); err != nil {
			return fail("collect: %v", err)
		}
	}
	report := &proto.CounterReport{
		CPUs:         make([]proto.CPUReport, m.NumCPUs()),
		CPUPowerW:    m.TotalCPUPower().W(),
		SystemPowerW: m.SystemPower().W(),
	}
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		delta := a.sampler.WindowAggregate(cpu, req.WindowQuanta)
		report.CPUs[cpu] = proto.ReportFor(delta, m.IsIdle(cpu))
	}
	return &proto.Message{Kind: proto.KindCounterReport, Now: m.Now(), CounterReport: report}
}

func (a *Agent) handleActuate(req proto.Actuate) *proto.Message {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.cfg.M
	if len(req.FreqsMHz) != m.NumCPUs() {
		return fail("%d frequencies for %d CPUs", len(req.FreqsMHz), m.NumCPUs())
	}
	applied := make([]float64, len(req.FreqsMHz))
	for cpu, mhz := range req.FreqsMHz {
		if err := m.SetFrequency(cpu, units.MHz(mhz)); err != nil {
			return fail("cpu %d: %v", cpu, err)
		}
		applied[cpu] = mhz
	}
	return &proto.Message{Kind: proto.KindActuateAck, Now: m.Now(), ActuateAck: &proto.ActuateAck{AppliedMHz: applied}}
}
