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
	"sync"
	"time"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/netcluster/proto"
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

// historyQuanta bounds the sampler's per-CPU delta ring: generous for any
// coordinator window (Fvsst.SchedulePeriods quanta, 10 at the defaults).
const historyQuanta = 256

// Agent serves one node's observation/actuation surface to the
// coordinator; the embedded server makes it reachable and closes it.
type Agent struct {
	server
	cfg AgentConfig

	mu      sync.Mutex
	sampler *counters.Sampler
	// lease is the coordinator-silence watchdog (engine.Lease over the
	// wall clock), guarded by mu as the Lease itself is unsynchronized.
	// Nil when the failsafe is disabled.
	lease *engine.Lease
}

// NewAgent validates the configuration and prepares the agent.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("netcluster: agent needs a name")
	}
	if cfg.M == nil {
		return nil, fmt.Errorf("netcluster: agent %s has no machine", cfg.Name)
	}
	if cfg.FailsafeLease < 0 {
		return nil, fmt.Errorf("netcluster: agent %s negative failsafe lease", cfg.Name)
	}
	sampler, err := counters.NewSampler(cfg.M, historyQuanta)
	if err != nil {
		return nil, err
	}
	a := &Agent{cfg: cfg, sampler: sampler}
	a.setup(cfg.Name, a.handle)
	if cfg.FailsafeLease > 0 {
		if a.lease, err = engine.NewLease(cfg.FailsafeLease, nil); err != nil {
			return nil, err
		}
		a.daemon = a.watchdog
	}
	return a, nil
}

// Now returns the node's simulation time.
func (a *Agent) Now() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg.M.Now()
}

// watchdog trips the failsafe after FailsafeLease of coordinator silence,
// counted from Start.
func (a *Agent) watchdog() {
	defer a.wg.Done()
	a.touch()
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

// handle answers one coordinator request in out; any request is contact.
func (a *Agent) handle(req *proto.Message, out *reply) *proto.Message {
	a.touch()
	switch req.Kind {
	case proto.KindHello:
		return a.handleHello()
	case proto.KindHeartbeat:
		return out.ack(proto.KindHeartbeatAck, a.Now())
	case proto.KindCounterRequest:
		if req.CounterRequest == nil {
			return fail("counter-request without payload")
		}
		return a.handleCounters(*req.CounterRequest, out)
	case proto.KindActuate:
		if req.Actuate == nil {
			return fail("actuate without payload")
		}
		return a.handleActuate(*req.Actuate, out)
	default:
		return fail("unknown kind %q", req.Kind)
	}
}

func (a *Agent) handleHello() *proto.Message {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.cfg.M
	return helloAck(m.Now(), m.Config().Table, proto.Capabilities{
		Node:        a.cfg.Name,
		NumCPUs:     m.NumCPUs(),
		QuantumSec:  m.Config().Quantum,
		FailsafeSec: a.cfg.FailsafeLease.Seconds(),
	})
}

func (a *Agent) handleCounters(req proto.CounterRequest, out *reply) *proto.Message {
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
	report := &out.counterRep
	*report = proto.CounterReport{
		CPUs:         report.CPUs[:0],
		CPUPowerW:    m.TotalCPUPower().W(),
		SystemPowerW: m.SystemPower().W(),
	}
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		delta := a.sampler.WindowAggregate(cpu, req.WindowQuanta)
		report.CPUs = append(report.CPUs, proto.ReportFor(delta, m.IsIdle(cpu)))
	}
	resp := out.ack(proto.KindCounterReport, m.Now())
	resp.CounterReport = report
	return resp
}

func (a *Agent) handleActuate(req proto.Actuate, out *reply) *proto.Message {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.cfg.M
	if len(req.FreqsMHz) != m.NumCPUs() {
		return fail("%d frequencies for %d CPUs", len(req.FreqsMHz), m.NumCPUs())
	}
	ack := &out.actuateAck
	ack.AppliedMHz = ack.AppliedMHz[:0]
	for cpu, mhz := range req.FreqsMHz {
		if err := m.SetFrequency(cpu, units.MHz(mhz)); err != nil {
			return fail("cpu %d: %v", cpu, err)
		}
		ack.AppliedMHz = append(ack.AppliedMHz, mhz)
	}
	resp := out.ack(proto.KindActuateAck, m.Now())
	resp.ActuateAck = ack
	return resp
}
