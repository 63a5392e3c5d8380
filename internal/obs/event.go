// Package obs is the scheduler observability layer: structured decision
// tracing plus a lock-safe metrics registry with Prometheus text-exposition
// and JSONL export. The paper's daemon justifies every frequency/voltage
// assignment with counter-derived predictions (Figure 3); this package
// records those justifications — which trigger fired, each processor's
// Step-1 ε-choice, every Step-2 budget demotion with its predicted loss,
// the Step-3 voltages, and the prediction error observed one period later
// — so a run can be audited decision by decision instead of eyeballed
// from a flat log.
//
// The package deliberately has no dependencies beyond the standard
// library and internal/stats, so every layer of the stack (scheduler,
// driver, cluster coordinator, binaries) can emit into it without import
// cycles. Producers hold a Sink; a nil Sink disables tracing with no
// hot-path cost beyond one pointer test.
package obs

// Event types. Producers set Type to one of these; consumers that only
// understand a subset ignore the rest.
const (
	// EventSchedule is one complete scheduling pass (Figure 3 Steps 1–3).
	EventSchedule = "schedule"
	// EventQuantum is one dispatch quantum of machine state (power draw).
	EventQuantum = "quantum"
	// EventDegrade marks a cluster node that missed enough rounds to
	// be charged its worst-case table power instead of scheduled.
	EventDegrade = "degrade"
	// EventRejoin marks a degraded node re-establishing its session.
	EventRejoin = "rejoin"
	// EventFailsafe marks a node agent's watchdog expiring: the agent
	// dropped every CPU to its minimum frequency on its own.
	EventFailsafe = "failsafe"
	// EventRealloc is one farm-level reallocation pass: the datacenter
	// allocator re-divided the global budget across its clusters.
	EventRealloc = "realloc"
	// EventLeaseExpire marks a cluster's budget lease running out without
	// renewal: the cluster falls back to its floor budget on its own, the
	// farm-level analogue of the node agent failsafe.
	EventLeaseExpire = "lease-expire"
	// EventSpan is one timed phase of a scheduling or reallocation pass.
	// Spans form a two-level causal tree per pass: a "pass" root plus
	// children ("grid-fill", "step1"…, "poll", "rpc:actuate"…) that share
	// the root's PassID; Parent names the enclosing span. At is simulated
	// time (the pass epoch); DurS and the RPC breakdown are wall-clock.
	EventSpan = "span"
)

// Span names emitted by the schedulers and coordinators. The per-pass
// tree is flat-encoded: every span event carries the pass's ID, so a
// trace consumer groups by (PassID, Node) and orders by name.
const (
	// SpanPass is the root span covering one whole scheduling pass.
	SpanPass = "pass"
	// SpanGridFill is the prediction-grid fill (decompose + per-frequency
	// sweep) portion of Step 1.
	SpanGridFill = "grid-fill"
	// SpanStepOne is the Step-1 ε-choice excluding the grid fill.
	SpanStepOne = "step1"
	// SpanStepTwo is the Step-2 budget fit.
	SpanStepTwo = "step2"
	// SpanStepThree is the Step-3 voltage assignment.
	SpanStepThree = "step3"
	// SpanActuate is frequency actuation (local machine or RPC fan-out).
	SpanActuate = "actuate"
	// SpanPoll is the networked coordinator's counter-poll fan-out.
	SpanPoll = "poll"
	// SpanSchedule is the networked coordinator's global core pass.
	SpanSchedule = "schedule"
	// SpanRPCCounters / SpanRPCActuate are one node's RPC round-trips,
	// with the queue/wire/apply latency breakdown filled in.
	SpanRPCCounters = "rpc:counters"
	SpanRPCActuate  = "rpc:actuate"
	// SpanRPCDemand / SpanRPCGrant are the relay tier's round-trips: a
	// root's demand poll of one relay and the grant that answers it.
	SpanRPCDemand = "rpc:demand"
	SpanRPCGrant  = "rpc:grant"
	// SpanEncode / SpanDecode aggregate the wire codec's per-pass
	// encode/decode time across a coordinator's connections.
	SpanEncode = "encode"
	SpanDecode = "decode"
	// SpanDivide is the root's least-loss division of the budget across
	// relay demand curves (the hierarchical Step-2 merge).
	SpanDivide = "divide"
	// SpanAlloc is one farm-level reallocation pass.
	SpanAlloc = "alloc"
)

// Event is one structured trace record. A single flat type covers all
// event kinds — unused fields are omitted from the JSON rendering — so a
// JSONL trace file is a homogeneous, greppable stream.
type Event struct {
	// Type discriminates the event kind (EventSchedule, EventQuantum).
	Type string `json:"type"`
	// At is the simulation timestamp in seconds.
	At float64 `json:"t"`
	// Node names the emitting cluster node, empty on a single machine.
	Node string `json:"node,omitempty"`
	// PassID correlates everything one scheduling/reallocation pass
	// produced: the schedule event, its spans, and (over the wire) the
	// agent-side acknowledgements. IDs count passes from the engine clock
	// epoch — pass k fires at epoch time (k−1)·T — so the ID doubles as
	// the pass's position in simulated time. 0 means unattributed.
	PassID uint64 `json:"pass,omitempty"`

	// Span fields (EventSpan): the span name, its parent span name within
	// the same pass, and the wall-clock duration. QueueS/WireS/ApplyS are
	// the RPC latency breakdown on rpc:* spans: time queued behind the
	// pass phases before the request was sent, time on the wire (measured
	// round-trip minus the agent's reported service time), and the
	// agent-side service/apply time.
	Span   string  `json:"span,omitempty"`
	Parent string  `json:"parent,omitempty"`
	DurS   float64 `json:"dur_s,omitempty"`
	QueueS float64 `json:"queue_s,omitempty"`
	WireS  float64 `json:"wire_s,omitempty"`
	ApplyS float64 `json:"apply_s,omitempty"`

	// Schedule-pass fields.
	Trigger      string          `json:"trigger,omitempty"`
	BudgetW      float64         `json:"budget_w,omitempty"`
	TablePowerW  float64         `json:"table_power_w,omitempty"`
	HeadroomW    float64         `json:"headroom_w,omitempty"`
	BudgetMissed bool            `json:"budget_missed,omitempty"`
	CPUs         []CPUTrace      `json:"cpus,omitempty"`
	Demotions    []DemotionTrace `json:"demotions,omitempty"`

	// Quantum fields.
	SystemPowerW float64 `json:"system_power_w,omitempty"`
	CPUPowerW    float64 `json:"cpu_power_w,omitempty"`

	// Networked-cluster fields (netcluster). ChargedW is the power the
	// coordinator holds against the budget — live assignments plus the
	// worst-case reservation for degraded nodes (ReservedW). Detail
	// carries the human-readable cause on degrade/rejoin/failsafe events.
	ChargedW  float64 `json:"charged_w,omitempty"`
	ReservedW float64 `json:"reserved_w,omitempty"`
	Detail    string  `json:"detail,omitempty"`

	// Farm fields (internal/farm). RunwaySeconds is how long the budget
	// source can sustain the charged draw (the UPS runway); Clusters is the
	// per-cluster allocation of a reallocation pass.
	RunwaySeconds float64        `json:"runway_s,omitempty"`
	Clusters      []ClusterAlloc `json:"clusters,omitempty"`
}

// ClusterAlloc is one cluster's slice of a farm reallocation: the budget
// lease it was granted (or is still charged while unreachable), its floor,
// the demand it asked for and the loss the allocator predicts at the grant.
type ClusterAlloc struct {
	Cluster       string  `json:"cluster"`
	AllocatedW    float64 `json:"allocated_w"`
	FloorW        float64 `json:"floor_w"`
	DesiredW      float64 `json:"desired_w,omitempty"`
	PredictedLoss float64 `json:"predicted_loss,omitempty"`
	ExpiresAt     float64 `json:"expires,omitempty"`
	Unreachable   bool    `json:"unreachable,omitempty"`
}

// CPUTrace is one processor's slice of a scheduling decision: the Step-1
// ε-constrained desire, the Step-2 post-budget actual, the Step-3 voltage
// and the prediction bookkeeping.
type CPUTrace struct {
	CPU  int    `json:"cpu"`
	Node string `json:"node,omitempty"`
	Idle bool   `json:"idle,omitempty"`
	// DesiredMHz is the Step-1 ε-choice; ActualMHz what Step 2 left.
	DesiredMHz float64 `json:"desired_mhz"`
	ActualMHz  float64 `json:"actual_mhz"`
	// VoltageV is the Step-3 minimum voltage for ActualMHz.
	VoltageV float64 `json:"voltage_v"`
	// PredictedLoss is the predicted performance loss at ActualMHz vs
	// f_max; PredictedIPC the predicted IPC at ActualMHz.
	PredictedLoss float64 `json:"predicted_loss,omitempty"`
	PredictedIPC  float64 `json:"predicted_ipc,omitempty"`
	// ObservedIPC is the elapsed window's measured IPC.
	ObservedIPC float64 `json:"observed_ipc,omitempty"`
	// IPCError is the relative error of the *previous* pass's IPC
	// prediction against this window's observation ((obs−pred)/pred),
	// valid only when IPCErrorValid — the online version of Table 2.
	IPCError      float64 `json:"ipc_error,omitempty"`
	IPCErrorValid bool    `json:"ipc_error_valid,omitempty"`
	// Obs is the raw counter window Step 1 consumed for this decision,
	// so the trace carries every input of the pass. Nil for idle or
	// unobserved CPUs.
	Obs *ObsTrace `json:"obs,omitempty"`
}

// ObsTrace is one CPU's raw observation window: the counter deltas and
// the exact frequency the window ran at. FreqHz is in hertz rather than
// the MHz convention of the decision fields so the JSON round trip is
// bit-exact.
type ObsTrace struct {
	WindowS      float64 `json:"window_s"`
	Instructions uint64  `json:"instr"`
	Cycles       uint64  `json:"cycles"`
	HaltedCycles uint64  `json:"halted,omitempty"`
	L2Refs       uint64  `json:"l2,omitempty"`
	L3Refs       uint64  `json:"l3,omitempty"`
	MemRefs      uint64  `json:"mem,omitempty"`
	FreqHz       float64 `json:"freq_hz"`
}

// DemotionTrace is one Step-2 reduction: the budget fit lowered a
// processor one table step at the stated predicted loss versus f_max.
type DemotionTrace struct {
	CPU           int     `json:"cpu"`
	Node          string  `json:"node,omitempty"`
	FromMHz       float64 `json:"from_mhz"`
	ToMHz         float64 `json:"to_mhz"`
	PredictedLoss float64 `json:"predicted_loss"`
}
