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

	sampler *counters.Sampler
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

	pending   []pendingActuation
	decisions []Decision
	// clock is the cluster's simulated time, one machine quantum per Step;
	// cadence answers whether the Step's collection is the n-th, which
	// makes a scheduling pass due.
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
		if q := n.M.Config().Quantum; q != quantum {
			return nil, fmt.Errorf("cluster: node %s runs a %v s quantum, node %s %v s: a cluster has one quantum",
				n.Name, q, nodes[0].Name, quantum)
		}
		// History capacity: the aggregation window plus the most windows an
		// RTT can hold in flight (each collected window spans one quantum).
		sampler, err := counters.NewSampler(n.M, 4*cfg.SchedulePeriods+int(math.Ceil(rtt/quantum)))
		if err != nil {
			return nil, err
		}
		n.sampler = sampler
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

// procs enumerates every processor in the cluster in (node, cpu) order.
func (c *Coordinator) procs() []ProcRef {
	var out []ProcRef
	for ni, n := range c.nodes {
		for cpu := 0; cpu < n.M.NumCPUs(); cpu++ {
			out = append(out, ProcRef{Node: ni, CPU: cpu})
		}
	}
	return out
}

// Step advances every node by one dispatch quantum and runs the
// coordinator's collect/schedule protocol.
func (c *Coordinator) Step() error {
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

// buildInputs assembles the per-processor inputs a global pass sees: the
// idle signal and the RTT-stale counter observations. Shared by schedule
// and DemandCurve so the farm allocator prices exactly the state the next
// pass would schedule from.
func (c *Coordinator) buildInputs() ([]ProcRef, []ProcInput) {
	procs := c.procs()
	inputs := make([]ProcInput, len(procs))
	for i, p := range procs {
		n := c.nodes[p.Node]
		in := ProcInput{Proc: p, Node: n.Name}
		if c.cfg.UseIdleSignal && n.M.IsIdle(p.CPU) {
			in.Idle = true
		} else if o, ok := c.observation(p); ok {
			o := o
			in.Obs = &o
		}
		inputs[i] = in
	}
	return procs, inputs
}

// DemandCurve exports the cluster's current budget→predicted-loss curve
// for the farm allocator, priced from the same stale observations the
// next scheduling pass would use.
func (c *Coordinator) DemandCurve() (farm.DemandCurve, error) {
	_, inputs := c.buildInputs()
	return c.core.DemandCurve(inputs)
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
	procs, inputs := c.buildInputs()
	res, err := c.core.Schedule(inputs, c.budget)
	if err != nil {
		return err
	}
	for i, p := range procs {
		n := c.nodes[p.Node]
		c.pending = append(c.pending, pendingActuation{
			due:  c.clock.Now() + rtt,
			proc: p,
			f:    res.Assignments[i].Actual,
			m:    n.M,
		})
	}
	c.decisions = append(c.decisions, Decision{
		At:          c.clock.Now(),
		Trigger:     trigger,
		Budget:      c.budget,
		TablePower:  res.TablePower,
		BudgetMet:   res.BudgetMet,
		Assignments: res.Assignments,
	})
	return nil
}

// LastDecision returns the most recent global pass, if any ran. The
// assignments slice is shared with the log — callers must not mutate it.
func (c *Coordinator) LastDecision() (Decision, bool) {
	if len(c.decisions) == 0 {
		return Decision{}, false
	}
	return c.decisions[len(c.decisions)-1], true
}

// Decisions returns the coordinator's decision log.
func (c *Coordinator) Decisions() []Decision {
	out := make([]Decision, len(c.decisions))
	copy(out, c.decisions)
	return out
}

// AllJobsDone reports whether every node's workload completed.
func (c *Coordinator) AllJobsDone() bool {
	for _, n := range c.nodes {
		if !n.M.AllJobsDone() {
			return false
		}
	}
	return true
}

// RunUntilAllDone advances until all workloads finish or the deadline
// passes.
func (c *Coordinator) RunUntilAllDone(deadline float64) (bool, error) {
	for c.clock.Now() < deadline {
		if c.AllJobsDone() {
			return true, nil
		}
		if err := c.Step(); err != nil {
			return false, err
		}
	}
	return c.AllJobsDone(), nil
}

// TierSpec describes one tier of a classic three-tier deployment.
type TierSpec struct {
	Name string
	// Programs are assigned round-robin to the node's CPUs.
	Programs []workload.Program
}

// NewTieredNode builds a node from a machine config and tier spec.
func NewTieredNode(mcfg machine.Config, tier TierSpec) (*Node, error) {
	mcfg.Name = tier.Name
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, err
	}
	for i, prog := range tier.Programs {
		cpu := i % mcfg.NumCPUs
		if existing := m.Mix(cpu); existing != nil {
			if err := existing.Add(prog); err != nil {
				return nil, err
			}
			continue
		}
		mix, err := workload.NewMix(prog)
		if err != nil {
			return nil, err
		}
		if err := m.SetMix(cpu, mix); err != nil {
			return nil, err
		}
	}
	return &Node{Name: tier.Name, M: m}, nil
}

// Tiered builds the paper's motivating cluster shape (§4.2: "some machines
// run the web server, some the processing logic and some the database"):
// a web node with light CPU work and idle capacity, an app node with
// CPU-bound work, and a db node with memory-bound work. scale trades run
// length for harness time.
func Tiered(mcfg machine.Config, scale workload.AppScale) ([]*Node, error) {
	web := TierSpec{Name: "web", Programs: []workload.Program{
		workload.Gzip(scale), // static-content compression
	}}
	app := TierSpec{Name: "app", Programs: []workload.Program{
		workload.Gap(scale), workload.Gzip(scale), workload.Gap(scale), workload.Gap(scale),
	}}
	db := TierSpec{Name: "db", Programs: []workload.Program{
		workload.Mcf(scale), workload.Health(scale), workload.Mcf(scale), workload.Health(scale),
	}}
	var nodes []*Node
	for _, tier := range []TierSpec{web, app, db} {
		n, err := NewTieredNode(mcfg, tier)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}
