// Package proto defines the netcluster control-plane wire protocol: the
// messages a cluster coordinator exchanges with per-node agents to read
// performance counters and actuate frequency/voltage settings over a real
// network, plus the framing that carries them.
//
// Framing is a 4-byte big-endian length prefix followed by one JSON
// object. Every message carries the protocol version (readers reject
// mismatches rather than guess) and a request ID; responses echo the ID of
// the request they answer, so a coordinator can discard stale or
// duplicated responses after retries. JSON keeps the protocol inspectable
// with tcpdump and evolvable field-by-field; the length prefix bounds
// reads and keeps message boundaries independent of the payload encoding.
package proto

import (
	"repro/internal/counters"
)

// Version is the protocol version. A reader that receives any other
// version fails the read; the handshake surfaces the mismatch as an
// error message rather than undefined behaviour mid-run.
const Version = 1

// MaxMessageSize bounds one frame's JSON payload. Counter reports grow
// linearly in CPUs, so 1 MiB leaves orders of magnitude of headroom while
// keeping a corrupt or hostile length prefix from forcing a huge
// allocation.
const MaxMessageSize = 1 << 20

// Message kinds. Requests flow coordinator→agent; each has a matching
// acknowledgement flowing back.
const (
	// KindHello opens (or re-opens) a coordinator→agent session.
	KindHello = "hello"
	// KindHelloAck answers with the node's capabilities.
	KindHelloAck = "hello-ack"
	// KindCounterRequest asks the agent to advance its machine and report
	// per-CPU counter windows.
	KindCounterRequest = "counter-request"
	// KindCounterReport carries the per-CPU windows back.
	KindCounterReport = "counter-report"
	// KindActuate assigns per-CPU frequencies (Step 2 output); the agent
	// applies the minimum table voltage itself (Step 3 is a node-local
	// table lookup).
	KindActuate = "actuate"
	// KindActuateAck confirms the applied settings.
	KindActuateAck = "actuate-ack"
	// KindHeartbeat probes liveness. Agents and relays answer it; no
	// scheduling round sends it, the round's first request being the probe.
	KindHeartbeat = "heartbeat"
	// KindHeartbeatAck answers a heartbeat.
	KindHeartbeatAck = "heartbeat-ack"
	// KindError reports a request the agent could not serve; Error holds
	// the reason and ID echoes the failed request.
	KindError = "error"
	// KindDemandRequest asks a relay to advance and poll its subtree and
	// answer with its aggregated demand curve. It carries the same
	// CounterRequest payload as a counter poll — the relay forwards the
	// advance/window quanta to every child.
	KindDemandRequest = "demand-request"
	// KindDemandReport carries the relay's aggregated demand curve back.
	KindDemandReport = "demand-report"
	// KindGrant awards a relay its share of the global budget; the relay
	// schedules and actuates its subtree under it.
	KindGrant = "grant"
	// KindGrantAck confirms the applied subtree schedule.
	KindGrantAck = "grant-ack"
)

// Message is one frame. A single flat envelope with optional payload
// pointers — mirroring obs.Event — keeps the codec to one code path and
// the stream greppable.
type Message struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	// ID identifies a request; the response echoes it. A coordinator
	// discards responses whose ID does not match the outstanding request
	// (late retransmissions, duplicates).
	ID uint64 `json:"id,omitempty"`
	// Node names the agent, on every agent→coordinator message.
	Node string `json:"node,omitempty"`
	// Now is the sender's simulation time in seconds, on acknowledgements.
	Now float64 `json:"now,omitempty"`
	// Error is the failure reason on KindError messages.
	Error string `json:"error,omitempty"`
	// Trace carries the coordinator's trace context on requests; agents
	// echo it verbatim on the matching acknowledgement so a packet capture
	// or agent log attributes every frame to its scheduling pass. Version
	// stays 1: unknown fields are ignored by old readers, so the addition
	// is wire-compatible in both directions.
	Trace *TraceContext `json:"trace,omitempty"`
	// ServiceSec is the agent's wall-clock handling time for the request
	// this message acknowledges (receive→send), set on every ack. The
	// coordinator subtracts it from the measured round-trip to split wire
	// time from apply time in the per-node rpc:* spans.
	ServiceSec float64 `json:"service_sec,omitempty"`

	Hello        *Hello        `json:"hello,omitempty"`
	Capabilities *Capabilities `json:"capabilities,omitempty"`
	// CounterRequest is the payload of both KindCounterRequest and
	// KindDemandRequest (a demand poll forwards the same quanta).
	CounterRequest *CounterRequest `json:"counter_request,omitempty"`
	CounterReport  *CounterReport  `json:"counter_report,omitempty"`
	Actuate        *Actuate        `json:"actuate,omitempty"`
	ActuateAck     *ActuateAck     `json:"actuate_ack,omitempty"`
	DemandReport   *DemandReport   `json:"demand_report,omitempty"`
	Grant          *Grant          `json:"grant,omitempty"`
	GrantAck       *GrantAck       `json:"grant_ack,omitempty"`
}

// TraceContext is the causal-span context propagated on requests: the
// scheduling pass the request belongs to. IDs count passes from the
// coordinator's engine-clock epoch (pass k fires at epoch time (k−1)·T),
// matching obs.Event.PassID, so trace files from both ends join on it.
type TraceContext struct {
	PassID uint64 `json:"pass"`
}

// Hello is the coordinator's session-opening request. Re-sent on every
// reconnection; the capabilities in the answering hello-ack re-sync the
// coordinator's view of the node (the rejoin path after a partition).
type Hello struct {
	// Coordinator names the coordinator for the agent's logs.
	Coordinator string `json:"coordinator"`
	// Codecs lists the payload encodings the coordinator can read, for
	// the agent's logs (selection is coordinator-driven: it sends binary
	// hot frames and the agent answers in kind). Absent means JSON only,
	// which only the codec differential's oracle arm sends.
	Codecs []string `json:"codecs,omitempty"`
}

// Capabilities describes an agent's node in the hello-ack: everything the
// coordinator needs to schedule it and to charge it safely while silent.
type Capabilities struct {
	Node       string  `json:"node"`
	NumCPUs    int     `json:"num_cpus"`
	QuantumSec float64 `json:"quantum_sec"`
	// FreqsMHz lists the node's operating-point frequencies ascending.
	FreqsMHz []float64 `json:"freqs_mhz"`
	// MaxPowerW is the per-CPU worst-case table power — the most one
	// processor can draw at any setting. The coordinator charges
	// NumCPUs·MaxPowerW for a degraded node that was never actuated.
	MaxPowerW float64 `json:"max_power_w"`
	// FailsafeSec is the agent's watchdog lease: after this much
	// wall-clock silence from the coordinator the agent drops every CPU
	// to its minimum frequency on its own. 0 means no failsafe.
	FailsafeSec float64 `json:"failsafe_sec,omitempty"`
	// Codecs lists the payload encodings this node can speak besides the
	// implied "json". A coordinator refuses a node that does not list the
	// wire package's binary codec, and switches its hot frames to it after
	// the handshake; hello, capabilities and errors stay JSON regardless.
	Codecs []string `json:"codecs,omitempty"`
	// Tier distinguishes an aggregating relay ("relay", NumCPUs is the
	// subtree's processor total) from a leaf agent (empty).
	Tier string `json:"tier,omitempty"`
}

// CounterRequest drives one scheduling period: the agent advances its
// machine AdvanceQuanta dispatch quanta (collecting counters each
// quantum) and reports each CPU's aggregate over the most recent
// WindowQuanta windows. In a deployment against real hardware the advance
// is implicit — wall-clock time passes on the node — and only the window
// aggregation remains.
type CounterRequest struct {
	AdvanceQuanta int `json:"advance_quanta"`
	WindowQuanta  int `json:"window_quanta"`
}

// CPUReport is one processor's counter window plus the node-local idle
// indicator.
type CPUReport struct {
	Idle         bool    `json:"idle,omitempty"`
	WindowSec    float64 `json:"window_sec"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	HaltedCycles uint64  `json:"halted_cycles,omitempty"`
	L2Refs       uint64  `json:"l2_refs,omitempty"`
	L3Refs       uint64  `json:"l3_refs,omitempty"`
	MemRefs      uint64  `json:"mem_refs,omitempty"`
}

// ReportFor renders a counter delta as a wire report.
func ReportFor(d counters.Delta, idle bool) CPUReport {
	return CPUReport{
		Idle:         idle,
		WindowSec:    d.Window,
		Instructions: d.Instructions,
		Cycles:       d.Cycles,
		HaltedCycles: d.HaltedCycles,
		L2Refs:       d.L2Refs,
		L3Refs:       d.L3Refs,
		MemRefs:      d.MemRefs,
	}
}

// Delta converts the wire report back into a counter delta.
func (r CPUReport) Delta() counters.Delta {
	return counters.Delta{
		Window:       r.WindowSec,
		Instructions: r.Instructions,
		Cycles:       r.Cycles,
		HaltedCycles: r.HaltedCycles,
		L2Refs:       r.L2Refs,
		L3Refs:       r.L3Refs,
		MemRefs:      r.MemRefs,
	}
}

// CounterReport answers a CounterRequest with every CPU's window and the
// node's power readings for the coordinator's quantum telemetry.
type CounterReport struct {
	CPUs         []CPUReport `json:"cpus"`
	CPUPowerW    float64     `json:"cpu_power_w"`
	SystemPowerW float64     `json:"system_power_w,omitempty"`
}

// Actuate assigns one frequency per CPU, in MHz, CPU order.
type Actuate struct {
	FreqsMHz []float64 `json:"freqs_mhz"`
}

// ActuateAck confirms the frequencies the agent applied.
type ActuateAck struct {
	AppliedMHz []float64 `json:"applied_mhz"`
}

// DemandPoint is one point of a relay's aggregated demand curve: an
// aggregate table power the subtree could run at and the predicted loss
// there, plus the step key of the demotion that produced the point (the
// farm.StepKey fields, flattened) so the root can interleave several
// relays' curves in exact flat-greedy order. Step fields are zero on the
// first point.
type DemandPoint struct {
	PowerW   float64 `json:"power_w"`
	Loss     float64 `json:"loss"`
	StepLoss float64 `json:"step_loss,omitempty"`
	StepIdx  int     `json:"step_idx,omitempty"`
	StepProc int     `json:"step_proc,omitempty"`
}

// DemandReport answers a DemandRequest: the relay's subtree collapsed
// into one demand curve over its reachable processors, the worst-case
// charge for the children it could not reach, and aggregate telemetry.
type DemandReport struct {
	Points []DemandPoint `json:"points,omitempty"`
	// Desired is the Step-1 desired table index per reachable processor,
	// in the relay's flat processor order (curve point 0). The root needs
	// it to replay the flat Step-2 stop arithmetic exactly.
	Desired []int `json:"desired,omitempty"`
	// ReservedW is the worst-case power of the relay's unreachable
	// children; the root holds it against the budget before dividing the
	// remainder across curves.
	ReservedW    float64 `json:"reserved_w,omitempty"`
	CPUPowerW    float64 `json:"cpu_power_w,omitempty"`
	SystemPowerW float64 `json:"system_power_w,omitempty"`
	// Degraded lists the relay's currently degraded children.
	Degraded []string `json:"degraded,omitempty"`
}

// Grant awards a relay the budget for its reachable processors (the
// relay's own ReservedW is already held at the root).
type Grant struct {
	BudgetW float64 `json:"budget_w"`
}

// GrantAck reports the subtree schedule the relay applied under a grant.
type GrantAck struct {
	// ChargedW is the relay's post-actuation ledger total: acknowledged
	// children's table power plus the worst case of every silent child.
	// It is also the most the subtree can draw if the relay goes silent
	// now, so the root charges it while the relay is unreachable.
	ChargedW    float64 `json:"charged_w"`
	TablePowerW float64 `json:"table_power_w"`
	ReservedW   float64 `json:"reserved_w,omitempty"`
	// Met reports charged ≤ grant + the demand-time reservation.
	Met bool `json:"met"`
}
