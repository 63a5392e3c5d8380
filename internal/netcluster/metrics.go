package netcluster

import (
	"time"

	"repro/internal/netcluster/wire"
	"repro/internal/obs"
	"repro/internal/units"
)

// RPCLatencyBuckets span loopback microbenchmarks through WAN retries.
var RPCLatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// Metrics instruments the coordinator's transport: per-node RPC latency,
// retry/timeout/failure counts, reconnections, the degraded-node gauge
// and the charged-power decomposition. It aggregates into its own
// obs.Registry.
type Metrics struct {
	Registry *obs.Registry

	rpcLatency  *obs.HistogramVec // node, kind
	retries     *obs.CounterVec   // node, kind
	timeouts    *obs.CounterVec   // node, kind
	failures    *obs.CounterVec   // node, kind
	reconnects  *obs.CounterVec   // node
	transitions *obs.CounterVec   // node, transition
	degraded    *obs.Gauge
	charged     *obs.Gauge
	reserved    *obs.Gauge
	wireFrames  *obs.GaugeVec // codec, direction
	wireBytes   *obs.GaugeVec // direction
	wireCodecNs *obs.GaugeVec // op
	wireReports *obs.GaugeVec // mode, direction
}

// NewMetrics builds the instrument set over a fresh registry.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		Registry: r,
		rpcLatency: r.Histogram("netcluster_rpc_latency_seconds",
			"Wall-clock latency of successful RPCs, including retries.", RPCLatencyBuckets, "node", "kind"),
		retries: r.Counter("netcluster_rpc_retries_total",
			"RPC attempts beyond the first.", "node", "kind"),
		timeouts: r.Counter("netcluster_rpc_timeouts_total",
			"RPC attempts that hit the per-attempt deadline.", "node", "kind"),
		failures: r.Counter("netcluster_rpc_failures_total",
			"RPCs that exhausted every attempt.", "node", "kind"),
		reconnects: r.Counter("netcluster_reconnects_total",
			"Connection (re-)establishments, including the first.", "node"),
		transitions: r.Counter("netcluster_node_transitions_total",
			"Degrade/rejoin transitions.", "node", "transition"),
		degraded: r.Gauge("netcluster_degraded_nodes",
			"Nodes currently charged worst-case power for silence.").With(),
		charged: r.Gauge("netcluster_charged_power_watts",
			"Power held against the budget after the last pass (live + reserved).").With(),
		reserved: r.Gauge("netcluster_reserved_power_watts",
			"Worst-case reservation for degraded nodes after the last pass.").With(),
		wireFrames: r.Gauge("netcluster_wire_frames_total",
			"Cumulative frames by payload codec and direction.", "codec", "direction"),
		wireBytes: r.Gauge("netcluster_wire_bytes_total",
			"Cumulative framed bytes by direction.", "direction"),
		wireCodecNs: r.Gauge("netcluster_wire_codec_nanoseconds_total",
			"Cumulative binary codec time by operation.", "op"),
		wireReports: r.Gauge("netcluster_wire_counter_reports_total",
			"Cumulative counter reports by encoding mode and direction.", "mode", "direction"),
	}
}

// nil-safe instrument helpers: the coordinator calls these
// unconditionally; a nil *Metrics disables instrumentation the same way a
// nil Sink disables tracing.

func (m *Metrics) observeRPC(node, kind string, d time.Duration) {
	if m == nil {
		return
	}
	m.rpcLatency.With(node, kind).Observe(d.Seconds())
}

func (m *Metrics) countRetry(node, kind string) {
	if m == nil {
		return
	}
	m.retries.With(node, kind).Inc()
}

func (m *Metrics) countTimeout(node, kind string) {
	if m == nil {
		return
	}
	m.timeouts.With(node, kind).Inc()
}

func (m *Metrics) countFailure(node, kind string) {
	if m == nil {
		return
	}
	m.failures.With(node, kind).Inc()
}

func (m *Metrics) countReconnect(node string) {
	if m == nil {
		return
	}
	m.reconnects.With(node).Inc()
}

func (m *Metrics) countTransition(node, transition string) {
	if m == nil {
		return
	}
	m.transitions.With(node, transition).Inc()
}

func (m *Metrics) setDegraded(n int) {
	if m == nil {
		return
	}
	m.degraded.Set(float64(n))
}

func (m *Metrics) setCharged(charged, reserved units.Power) {
	if m == nil {
		return
	}
	m.charged.Set(charged.W())
	m.reserved.Set(reserved.W())
}

// setWire publishes the fan-out's cumulative codec counters. The stats
// are monotone atomics shared by every connection, so gauges carrying the
// latest snapshot behave like counters to a scraper.
func (m *Metrics) setWire(st *wire.Stats) {
	if m == nil || st == nil {
		return
	}
	s := st.Snapshot()
	m.wireFrames.With("bin1", "out").Set(float64(s.BinFramesOut))
	m.wireFrames.With("bin1", "in").Set(float64(s.BinFramesIn))
	m.wireFrames.With("json", "out").Set(float64(s.JSONFramesOut))
	m.wireFrames.With("json", "in").Set(float64(s.JSONFramesIn))
	m.wireBytes.With("out").Set(float64(s.BytesOut))
	m.wireBytes.With("in").Set(float64(s.BytesIn))
	m.wireCodecNs.With("encode").Set(float64(s.EncodeNanos))
	m.wireCodecNs.With("decode").Set(float64(s.DecodeNanos))
	m.wireReports.With("full", "out").Set(float64(s.FullOut))
	m.wireReports.With("delta", "out").Set(float64(s.DeltaOut))
	m.wireReports.With("full", "in").Set(float64(s.FullIn))
	m.wireReports.With("delta", "in").Set(float64(s.DeltaIn))
}
