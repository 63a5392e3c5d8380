// Package cluster extends the fvsst scheduler from a single SMP to a
// server cluster (§1, §5): several nodes, each its own machine with local
// performance counters, coordinated by one scheduler that enforces a
// *global* power budget. The coordinator communicates with nodes over a
// modelled network with one 2 ms RTT on every node: counter data arrives
// one RTT stale and frequency actuations take one RTT to land — the
// inter-node communication overhead §5 says the long scheduling period T
// amortises.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/farm"
	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

// rtt is the one-way coordinator↔node message latency in seconds, the
// same on every node.
const rtt = 0.002

// Node is one cluster member.
type Node struct {
	Name string
	M    *machine.Machine

	// sampler reads sampled, the machine it was built on. Step and
	// DemandCurve build a new one when M has been swapped since
	// (reprovisioned, reset).
	sampler *counters.Sampler
	sampled *machine.Machine
}

// buildSampler builds the node's counter sampler on its current machine,
// which must run the cluster's quantum. The history holds the aggregation
// window plus the most windows an RTT can hold in flight (each collected
// window spans one quantum).
func (n *Node) buildSampler(quantum float64, periods int) error {
	if q := n.M.Config().Quantum; q != quantum {
		return fmt.Errorf("cluster: node %s runs a %v s quantum, the cluster %v s: a cluster has one quantum",
			n.Name, q, quantum)
	}
	s, err := counters.NewSampler(n.M, 4*periods+int(math.Ceil(rtt/quantum)))
	if err != nil {
		return err
	}
	n.sampler, n.sampled = s, n.M
	return nil
}

// Validate checks the node.
func (n *Node) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("cluster: node needs a name")
	}
	if n.M == nil {
		return fmt.Errorf("cluster: node %s has no machine", n.Name)
	}
	return nil
}

// ProcRef addresses one processor in the cluster.
type ProcRef struct {
	Node int
	CPU  int
}

// Assignment is the coordinator's decision for one processor.
type Assignment struct {
	Proc          ProcRef
	Desired       units.Frequency
	Actual        units.Frequency
	Voltage       units.Voltage
	PredictedLoss float64
	Idle          bool
}

// Decision is one global scheduling pass.
type Decision struct {
	At          float64
	Trigger     string
	Budget      units.Power
	TablePower  units.Power
	BudgetMet   bool
	Assignments []Assignment
}

type pendingActuation struct {
	due  float64
	proc ProcRef
	f    units.Frequency
	// m is the machine the actuation was scheduled against. If the node's
	// machine is swapped or reset while the message is in flight, the
	// stale actuation must not land on the replacement.
	m *machine.Machine
}

// Coordinator runs the global frequency/voltage schedule across all nodes.
type Coordinator struct {
	cfg    fvsst.Config
	core   *Core
	nodes  []*Node
	budget units.Power
	// source, when set, drives the budget over time — a lease Holder under
	// a farm allocator, a UPS runway governor, or a power.BudgetSchedule.
	// A change fires the budget-change trigger.
	source power.BudgetSource

	pending []pendingActuation
	// last is the latest global pass, valid once ran is set; the
	// coordinator keeps no older pass.
	last Decision
	ran  bool
	// inputs and obs are the pass inputs buildInputs refills on every
	// call: each observed input's Obs points into obs.
	inputs []ProcInput
	obs    []perfmodel.Observation
	// quantum is the dispatch quantum every node's machine runs; clock is
	// the cluster's simulated time, one quantum per Step; cadence answers
	// whether the Step's collection is the n-th, which makes a scheduling
	// pass due.
	quantum float64
	clock   engine.SimClock
	cadence engine.Cadence
	// beforeQuantum/afterQuantum bracket the lockstep machine stepping —
	// the hook serving stations use to deliver arrivals and expire
	// timeouts per node (see SetQuantumHook).
	beforeQuantum func(now float64)
	afterQuantum  func(now float64)
}

// New builds a coordinator over the nodes with a global processor power
// budget. A cluster has one dispatch quantum: every node's machine must
// run the first node's, and the nodes step in lockstep, one quantum per
// Step, with a pass due every SchedulePeriods Steps.
func New(cfg fvsst.Config, budget units.Power, nodes ...*Node) (*Coordinator, error) {
	core, err := NewCore(cfg)
	if err != nil {
		return nil, err
	}
	if budget <= 0 {
		return nil, fmt.Errorf("cluster: budget %v must be positive", budget)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: at least one node required")
	}
	for _, n := range nodes {
		if err := n.Validate(); err != nil {
			return nil, err
		}
	}
	quantum := nodes[0].M.Config().Quantum
	for _, n := range nodes {
		if err := n.buildSampler(quantum, cfg.SchedulePeriods); err != nil {
			return nil, err
		}
	}
	cadence, err := engine.NewCadence(cfg.SchedulePeriods)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		cfg:     cfg,
		core:    core,
		nodes:   nodes,
		budget:  budget,
		quantum: quantum,
		clock:   *engine.NewSimClock(quantum),
		cadence: cadence,
	}, nil
}

// Nodes returns the cluster's nodes.
func (c *Coordinator) Nodes() []*Node { return c.nodes }

// SetQuantumHook brackets every Step's machine advance: before runs
// just ahead of the lockstep node stepping (with the pre-step time),
// after just behind it (with the post-step time). Request-serving
// stations hang off this hook — before delivers matured arrivals and
// starts idle CPUs, after expires queue-wait timeouts and emits serve
// events — so open workloads ride under a coordinator without the
// coordinator knowing about queues. Either function may be nil.
func (c *Coordinator) SetQuantumHook(before, after func(now float64)) {
	c.beforeQuantum = before
	c.afterQuantum = after
}

// SetBudgetSource drives the global budget from a power.BudgetSource
// instead of the constant handed to New. This is how a cluster plugs into
// the farm layer: hand it the farm.Holder holding its lease and every
// grant or expiry becomes a budget-change pass; a power.BudgetSchedule
// plugs in directly.
func (c *Coordinator) SetBudgetSource(src power.BudgetSource) { c.source = src }

// Now returns the cluster simulation time.
func (c *Coordinator) Now() float64 { return c.clock.Now() }

// Budget returns the current global budget.
func (c *Coordinator) Budget() units.Power { return c.budget }

// TotalCPUPower returns the aggregate processor power across all nodes.
func (c *Coordinator) TotalCPUPower() units.Power {
	var sum units.Power
	for _, n := range c.nodes {
		sum += n.M.TotalCPUPower()
	}
	return sum
}

// resample gives every node whose machine was swapped since its sampler
// was built a sampler on the new machine, which is read from then on.
func (c *Coordinator) resample() error {
	for _, n := range c.nodes {
		if n.M != n.sampled {
			if err := n.buildSampler(c.quantum, c.cfg.SchedulePeriods); err != nil {
				return err
			}
		}
	}
	return nil
}

// Step advances every node by one dispatch quantum and runs the
// coordinator's collect/schedule protocol.
func (c *Coordinator) Step() error {
	if err := c.resample(); err != nil {
		return err
	}
	// Budget change trigger.
	want := c.budget
	if c.source != nil {
		want = c.source.BudgetAt(c.clock.Now())
	}
	if want != c.budget {
		c.budget = want
		if err := c.schedule("budget-change"); err != nil {
			return err
		}
	}

	// Deliver matured actuations (they spent one RTT in flight).
	kept := c.pending[:0]
	for _, p := range c.pending {
		if p.due <= c.clock.Now() {
			n := c.nodes[p.proc.Node]
			if n.M != p.m {
				// The node's machine was swapped or reset while this
				// actuation was in flight; delivering it would apply a
				// decision made against a machine that no longer exists.
				continue
			}
			if err := n.M.SetFrequency(p.proc.CPU, p.f); err != nil {
				return fmt.Errorf("cluster: actuate %s cpu %d: %w", n.Name, p.proc.CPU, err)
			}
		} else {
			kept = append(kept, p)
		}
	}
	c.pending = kept

	if c.beforeQuantum != nil {
		c.beforeQuantum(c.clock.Now())
	}
	for _, n := range c.nodes {
		if err := n.M.StepQuantum(); err != nil {
			return err
		}
		if err := n.sampler.Collect(); err != nil {
			return err
		}
	}
	c.clock.Tick()
	due := c.cadence.Tick()
	if c.afterQuantum != nil {
		c.afterQuantum(c.clock.Now())
	}
	if due {
		return c.schedule("timer")
	}
	return nil
}

// staleWindows returns how many of the newest history windows are still
// in flight to the coordinator: staleness is the RTT in simulated
// seconds, so windows are skipped until their combined span covers it.
// (With every window exactly one quantum long this equals the old
// ⌈RTT/quantum⌉ rule.)
func staleWindows(hist *counters.History) int {
	skip := 0
	var span float64
	for skip < hist.Len() && span < rtt {
		span += hist.Last(skip).Window
		skip++
	}
	return skip
}

// observation builds the (stale) observation for a processor: the most
// recent RTT's worth of windows has not reached the coordinator yet, so the
// aggregate skips them.
func (c *Coordinator) observation(p ProcRef) (perfmodel.Observation, bool) {
	n := c.nodes[p.Node]
	hist := n.sampler.History(p.CPU)
	skip := staleWindows(hist)
	if hist.Len() <= skip {
		return perfmodel.Observation{}, false
	}
	var agg counters.Delta
	count := 0
	for i := skip; i < hist.Len() && count < c.cfg.SchedulePeriods; i++ {
		agg = agg.Add(hist.Last(i))
		count++
	}
	return perfmodel.ObservationFrom(agg)
}

// buildInputs assembles the per-processor inputs a global pass sees, in
// (node, cpu) order: the idle signal and the RTT-stale counter
// observations. Shared by schedule and DemandCurve so the farm allocator
// prices exactly the state the next pass would schedule from. The inputs
// live in the coordinator's buffers until its next call; the processors
// are enumerated afresh each time, since a swapped machine may have
// another CPU count.
func (c *Coordinator) buildInputs() []ProcInput {
	cpus := 0
	for _, n := range c.nodes {
		cpus += n.M.NumCPUs()
	}
	// Sized before the first pointer into it is taken: no append may move it.
	if cap(c.obs) < cpus {
		c.obs = make([]perfmodel.Observation, cpus)
	}
	inputs := c.inputs[:0]
	for ni, n := range c.nodes {
		for cpu := 0; cpu < n.M.NumCPUs(); cpu++ {
			p := ProcRef{Node: ni, CPU: cpu}
			in := ProcInput{Proc: p, Node: n.Name}
			if c.cfg.UseIdleSignal && n.M.IsIdle(cpu) {
				in.Idle = true
			} else if o, ok := c.observation(p); ok {
				c.obs[len(inputs)] = o
				in.Obs = &c.obs[len(inputs)]
			}
			inputs = append(inputs, in)
		}
	}
	c.inputs = inputs
	return inputs
}

// DemandCurve exports the cluster's current budget→predicted-loss curve
// for the farm allocator, priced from the same stale observations the
// next scheduling pass would use. The curve lives on the coordinator's
// scratch: it is valid until the coordinator's next Step, DemandCurve or
// pass, and a caller that keeps it longer copies its points.
func (c *Coordinator) DemandCurve() (farm.DemandCurve, error) {
	if err := c.resample(); err != nil {
		return farm.DemandCurve{}, err
	}
	return c.core.DemandCurve(c.buildInputs())
}

// FloorPower returns the aggregate table power with every processor at
// the minimum setting — the cluster's farm lease floor.
func (c *Coordinator) FloorPower() units.Power {
	var sum units.Power
	for _, n := range c.nodes {
		for cpu := 0; cpu < n.M.NumCPUs(); cpu++ {
			sum += c.cfg.Table.PowerAtIndex(0)
		}
	}
	return sum
}

// schedule runs the shared global pass and dispatches RTT-delayed
// actuations.
func (c *Coordinator) schedule(trigger string) error {
	inputs := c.buildInputs()
	res, err := c.core.Schedule(inputs, c.budget)
	if err != nil {
		return err
	}
	for i, in := range inputs {
		c.pending = append(c.pending, pendingActuation{
			due:  c.clock.Now() + rtt,
			proc: in.Proc,
			f:    res.Assignments[i].Actual,
			m:    c.nodes[in.Proc.Node].M,
		})
	}
	c.last, c.ran = Decision{
		At:          c.clock.Now(),
		Trigger:     trigger,
		Budget:      c.budget,
		TablePower:  res.TablePower,
		BudgetMet:   res.BudgetMet,
		Assignments: res.Assignments,
	}, true
	return nil
}

// LastDecision returns the most recent global pass, if any ran. Its slices
// are that pass's own, valid after later passes; callers must not mutate them.
func (c *Coordinator) LastDecision() (Decision, bool) { return c.last, c.ran }

// Tiered builds the paper's motivating cluster shape (§4.2: "some machines
// run the web server, some the processing logic and some the database"):
// a web node with light CPU work and idle capacity, an app node with
// CPU-bound work, and a db node with memory-bound work. scale trades run
// length for harness time.
func Tiered(mcfg machine.Config, scale workload.AppScale) ([]*Node, error) {
	tiers := []struct {
		name     string
		programs []workload.Program
	}{
		{"web", []workload.Program{workload.Gzip(scale)}}, // static-content compression
		{"app", []workload.Program{workload.Gap(scale), workload.Gzip(scale), workload.Gap(scale), workload.Gap(scale)}},
		{"db", []workload.Program{workload.Mcf(scale), workload.Health(scale), workload.Mcf(scale), workload.Health(scale)}},
	}
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	var nodes []*Node
	for _, tier := range tiers {
		// The tier's programs go round-robin onto the node's CPUs.
		progs := make([][]workload.Program, mcfg.NumCPUs)
		for i, prog := range tier.programs {
			progs[i%mcfg.NumCPUs] = append(progs[i%mcfg.NumCPUs], prog)
		}
		mcfg.Name = tier.name
		m, err := machine.New(mcfg, progs...)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, &Node{Name: tier.name, M: m})
	}
	return nodes, nil
}
