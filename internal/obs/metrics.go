package obs

import "strconv"

// Metrics is a Sink that aggregates trace events into a Registry, giving
// the run's quantitative profile for free wherever tracing is wired:
// trigger counts, Step-2 demotion counts and losses, budget headroom,
// time-at-frequency residency and the online prediction-error
// distribution.
type Metrics struct {
	// Registry backs every metric below; expose it via WritePrometheus or
	// Handler.
	Registry *Registry

	decisions   *CounterVec // trigger
	misses      *Counter
	demotions   *CounterVec // node, cpu
	demotedLoss *Histogram
	budget      *Gauge
	headroom    *Gauge
	freq        *GaugeVec   // node, cpu
	volt        *GaugeVec   // node, cpu
	residency   *CounterVec // node, cpu, mhz
	idle        *CounterVec // node, cpu
	predErr     *Histogram
	predLoss    *Histogram
	sysPower    *Gauge
	cpuPower    *Gauge
}

// PredictionErrorBuckets are the |relative IPC error| bounds, spanning
// the sub-1% accuracy Table 2 reports through gross mispredictions.
var PredictionErrorBuckets = []float64{0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50}

// LossBuckets are the predicted-performance-loss bounds; the default
// ε = 5% sits mid-range.
var LossBuckets = []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.50}

// NewMetrics builds a Metrics sink over its own fresh registry.
func NewMetrics() *Metrics {
	r := NewRegistry()
	return &Metrics{
		Registry: r,
		decisions: r.Counter("fvsst_decisions_total",
			"Scheduling passes by trigger.", "trigger"),
		misses: r.Counter("fvsst_budget_misses_total",
			"Passes where even the frequency floor exceeded the budget.").With(),
		demotions: r.Counter("fvsst_demotions_total",
			"Step-2 single-step frequency reductions.", "node", "cpu"),
		demotedLoss: r.Histogram("fvsst_demotion_predicted_loss",
			"Predicted performance loss of each Step-2 reduction.", LossBuckets).With(),
		budget: r.Gauge("fvsst_budget_watts",
			"Current processor power budget.").With(),
		headroom: r.Gauge("fvsst_budget_headroom_watts",
			"Budget minus assigned table power after the last pass.").With(),
		freq: r.Gauge("fvsst_cpu_frequency_mhz",
			"Assigned frequency after the last pass.", "node", "cpu"),
		volt: r.Gauge("fvsst_cpu_voltage_volts",
			"Assigned Step-3 voltage after the last pass.", "node", "cpu"),
		residency: r.Counter("fvsst_cpu_frequency_decisions_total",
			"Decisions assigning each frequency, per CPU (time-at-frequency).", "node", "cpu", "mhz"),
		idle: r.Counter("fvsst_cpu_idle_decisions_total",
			"Decisions that saw the CPU idle.", "node", "cpu"),
		predErr: r.Histogram("fvsst_prediction_abs_error",
			"Absolute relative IPC prediction error, observed one period later.", PredictionErrorBuckets).With(),
		predLoss: r.Histogram("fvsst_assignment_predicted_loss",
			"Predicted performance loss of each non-idle assignment.", LossBuckets).With(),
		sysPower: r.Gauge("machine_system_power_watts",
			"True total system power this quantum.").With(),
		cpuPower: r.Gauge("machine_cpu_power_watts",
			"Aggregate processor power this quantum.").With(),
	}
}

// Emit aggregates one event.
func (m *Metrics) Emit(e Event) {
	switch e.Type {
	case EventSchedule:
		m.decisions.With(e.Trigger).Inc()
		if e.BudgetMissed {
			m.misses.Inc()
		}
		m.budget.Set(e.BudgetW)
		m.headroom.Set(e.HeadroomW)
		for _, c := range e.CPUs {
			node, cpu := nodeLabel(c.Node, e.Node), strconv.Itoa(c.CPU)
			m.freq.With(node, cpu).Set(c.ActualMHz)
			m.volt.With(node, cpu).Set(c.VoltageV)
			m.residency.With(node, cpu, formatFloat(c.ActualMHz)).Inc()
			if c.Idle {
				m.idle.With(node, cpu).Inc()
			} else {
				m.predLoss.Observe(c.PredictedLoss)
			}
			if c.IPCErrorValid {
				err := c.IPCError
				if err < 0 {
					err = -err
				}
				m.predErr.Observe(err)
			}
		}
		for _, d := range e.Demotions {
			m.demotions.With(nodeLabel(d.Node, e.Node), strconv.Itoa(d.CPU)).Inc()
			m.demotedLoss.Observe(d.PredictedLoss)
		}
	case EventQuantum:
		if e.SystemPowerW > 0 {
			m.sysPower.Set(e.SystemPowerW)
		}
		if e.CPUPowerW > 0 {
			m.cpuPower.Set(e.CPUPowerW)
		}
		if e.BudgetW > 0 {
			m.budget.Set(e.BudgetW)
		}
	}
}

// nodeLabel prefers the per-CPU node name, falling back to the event's.
func nodeLabel(cpuNode, eventNode string) string {
	if cpuNode != "" {
		return cpuNode
	}
	return eventNode
}
