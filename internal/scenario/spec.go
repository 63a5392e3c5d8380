// Package scenario generates seeded random end-to-end scenarios for the
// scheduler stack and runs them through three drivers under the
// internal/invariant checkers: an in-process driver over cluster.Core
// that mirrors the networked coordinator's round semantics, a loopback
// netcluster driver over faultnet, and a farm allocator driver. A
// differential harness runs the same scenario through the first two and
// demands equivalent decision traces outside declared fault windows;
// Shrink reduces a failing spec to a minimal reproducer. Soak orchestrates
// N seeds of all of it under a wall-clock budget into a JSON report.
//
// Everything is deterministic from Spec.Seed alone, per the engine
// seeding convention: one scenario seed, fixed offsets per derived stream
// (machine i simulates with Seed+101+i, the coordinator's backoff jitter
// with Seed+i, faultnet with Seed; serving scenarios add the station on
// node i at machine seed + 17 and the arrival stream for class c, client
// k on node i at Seed+701+1000·i+37·c+k).
package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/farm"
	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/units"
	"repro/internal/workload"
)

// CPUKind names a CPU's workload shape.
type CPUKind string

const (
	// CPUBound runs an α-limited endless phase with no memory traffic —
	// Step 1 should pin it near f_max.
	CPUBound CPUKind = "cpu"
	// MemBound stalls on the memory hierarchy — Step 1 should find a low
	// ε-saturation frequency.
	MemBound CPUKind = "mem"
	// Phased alternates a cpu-bound and a mem-bound phase, exercising
	// re-decision across phase boundaries.
	Phased CPUKind = "phased"
	// IdleCPU runs nothing; with UseIdleSignal the scheduler floors it.
	IdleCPU CPUKind = "idle"
)

// CPUSpec shapes one CPU's workload.
type CPUSpec struct {
	Kind  CPUKind `json:"kind"`
	Alpha float64 `json:"alpha,omitempty"`
	// L2, L3, Mem are per-instruction reference rates for the memory-bound
	// phases.
	L2  float64 `json:"l2,omitempty"`
	L3  float64 `json:"l3,omitempty"`
	Mem float64 `json:"mem,omitempty"`
}

// NodeSpec is one machine.
type NodeSpec struct {
	CPUs []CPUSpec `json:"cpus"`
}

// BudgetEvent rewrites the global budget at the start of a round.
type BudgetEvent struct {
	Round int     `json:"round"`
	Watts float64 `json:"watts"`
}

// Window partitions one node off the network for rounds [From, To).
type Window struct {
	Node int `json:"node"`
	From int `json:"from"`
	To   int `json:"to"`
}

// PolicyWindow applies a faultnet message-fault policy (drop/dup/delay)
// to one node for rounds [From, To). Unlike partitions these are not
// modelled by the in-process mirror: a dropped counter response still
// advanced the remote machine, so traces may diverge from From onward.
type PolicyWindow struct {
	Node    int     `json:"node"`
	From    int     `json:"from"`
	To      int     `json:"to"`
	Drop    float64 `json:"drop,omitempty"`
	Dup     float64 `json:"dup,omitempty"`
	DelayUS int     `json:"delay_us,omitempty"`
}

// ServingClassSpec is one request class in a serving scenario, the JSON
// shape of a serve.Class plus its per-client arrival process. Every node
// runs the same class set; the arrival spec applies per client.
type ServingClassSpec struct {
	Name string `json:"name"`
	// Arrival is a serve.ParseArrivalSpec string, e.g. "gamma:3,cv=1.5".
	Arrival string `json:"arrival"`
	Clients int    `json:"clients"`
	// MeanMInstr is the mean request size in millions of instructions.
	MeanMInstr float64 `json:"mean_minstr"`
	SizeCV     float64 `json:"size_cv,omitempty"`
	// MemPerInstr shapes the request execution profile's memory intensity
	// (serve.PhaseProfile).
	MemPerInstr float64 `json:"mem_per_instr,omitempty"`
	SLOMs       float64 `json:"slo_ms"`
	TimeoutMs   float64 `json:"timeout_ms,omitempty"`
	QueueCap    int     `json:"queue_cap"`
	AdmitRate   float64 `json:"admit_rate,omitempty"`
	AdmitBurst  int     `json:"admit_burst,omitempty"`
	Priority    int     `json:"priority,omitempty"`
}

// class renders the spec as a serve.Class.
func (c ServingClassSpec) class() serve.Class {
	return serve.Class{
		Name:       c.Name,
		Phase:      serve.PhaseProfile(1.3, c.MemPerInstr),
		MeanInstr:  c.MeanMInstr * 1e6,
		SizeCV:     c.SizeCV,
		SLO:        c.SLOMs / 1000,
		Timeout:    c.TimeoutMs / 1000,
		Priority:   c.Priority,
		QueueCap:   c.QueueCap,
		AdmitRate:  c.AdmitRate,
		AdmitBurst: c.AdmitBurst,
	}
}

// ServingSpec overlays open-loop request serving on the scenario: every
// node gets a serve.Station over the shared class set, fed by per-client
// renewal arrival streams, and the queue-conservation invariant is
// checked every round. CPU workload kinds are ignored in serving
// scenarios — the stations own the CPUs.
type ServingSpec struct {
	Classes []ServingClassSpec `json:"classes"`
}

func (sv *ServingSpec) validate() error {
	if len(sv.Classes) == 0 {
		return fmt.Errorf("scenario: serving spec has no classes")
	}
	for i, c := range sv.Classes {
		if c.Clients < 1 {
			return fmt.Errorf("scenario: serving class %d needs at least one client", i)
		}
		if _, err := serve.ParseArrivalSpec(c.Arrival); err != nil {
			return fmt.Errorf("scenario: serving class %d: %w", i, err)
		}
		probe := c.class()
		probe.Phase.Instructions = 1 // template length is per-request
		if err := probe.Validate(); err != nil {
			return fmt.Errorf("scenario: serving class %d: %w", i, err)
		}
	}
	return nil
}

// UPSSpec fails the supply onto a battery at the start of FailRound.
type UPSSpec struct {
	FailRound int     `json:"fail_round"`
	CapacityJ float64 `json:"capacity_j"`
	RunwaySec float64 `json:"runway_sec"`
}

// Spec is one complete scenario. The zero value is invalid; use Generate
// or fill every required field.
type Spec struct {
	Seed int64 `json:"seed"`
	// Table selects the operating-point table: "paper" (Table 1, 16
	// points) or "s5" (the §5 5-point table, small enough for exhaustive
	// Step-2 checking).
	Table           string         `json:"table"`
	Nodes           []NodeSpec     `json:"nodes"`
	Rounds          int            `json:"rounds"`
	SchedulePeriods int            `json:"schedule_periods"`
	Epsilon         float64        `json:"epsilon"`
	BudgetW         float64        `json:"budget_w"`
	Events          []BudgetEvent  `json:"events,omitempty"`
	Partitions      []Window       `json:"partitions,omitempty"`
	Policies        []PolicyWindow `json:"policies,omitempty"`
	UPS             *UPSSpec       `json:"ups,omitempty"`
	Serving         *ServingSpec   `json:"serving,omitempty"`
}

// quantum is the shared dispatch quantum for scenario machines.
const quantum = 0.010

// Generate draws a random scenario from the seed. Fault windows start at
// round 1 or later (round 0 establishes every node's first actuation) and
// heal with at least one clean round left, so rejoin paths run too.
func Generate(seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	s := Spec{
		Seed:            seed,
		Rounds:          8 + rng.Intn(17),
		SchedulePeriods: 2 + rng.Intn(3),
		Epsilon:         0.03 + 0.17*rng.Float64(),
	}
	if rng.Intn(2) == 0 {
		s.Table = "s5"
	} else {
		s.Table = "paper"
	}
	nNodes := 1 + rng.Intn(3)
	totalCPUs := 0
	for n := 0; n < nNodes; n++ {
		node := NodeSpec{}
		nCPU := 1 + rng.Intn(3)
		totalCPUs += nCPU
		for c := 0; c < nCPU; c++ {
			node.CPUs = append(node.CPUs, genCPU(rng))
		}
		s.Nodes = append(s.Nodes, node)
	}
	table, err := s.table()
	if err != nil {
		panic(err) // unreachable: generator only emits known table names
	}
	maxW := float64(table.PowerAtIndex(table.Len()-1)) * float64(totalCPUs)
	s.BudgetW = round1(maxW * (0.35 + 0.70*rng.Float64()))
	for i := rng.Intn(4); i > 0; i-- {
		s.Events = append(s.Events, BudgetEvent{
			Round: 1 + rng.Intn(s.Rounds-1),
			Watts: round1(maxW * (0.25 + 0.85*rng.Float64())),
		})
	}
	if rng.Intn(2) == 0 {
		for i := 1 + rng.Intn(2); i > 0; i-- {
			if w, ok := genWindow(rng, nNodes, s.Rounds); ok {
				s.Partitions = append(s.Partitions, w)
			}
		}
	}
	if rng.Intn(10) < 3 {
		if w, ok := genWindow(rng, nNodes, s.Rounds); ok {
			p := PolicyWindow{Node: w.Node, From: w.From, To: w.To}
			switch rng.Intn(3) {
			case 0:
				p.Drop = 0.05 + 0.25*rng.Float64()
			case 1:
				p.Dup = 0.10 + 0.40*rng.Float64()
			default:
				p.DelayUS = 200 + rng.Intn(2000)
			}
			s.Policies = append(s.Policies, p)
		}
	}
	if rng.Intn(10) < 3 {
		runway := 2 + 8*rng.Float64()
		s.UPS = &UPSSpec{
			FailRound: 1 + rng.Intn(max(1, s.Rounds/2)),
			RunwaySec: runway,
			CapacityJ: round1(s.BudgetW * runway * (0.5 + 0.5*rng.Float64())),
		}
	}
	// ~30% of seeds are serving scenarios: the stations own the CPUs (the
	// generated workload kinds are rewritten to idle so the spec reads the
	// way it runs) and the queue-conservation checker runs every round.
	if rng.Intn(10) < 3 {
		s.Serving = genServing(rng)
		for n := range s.Nodes {
			for c := range s.Nodes[n].CPUs {
				s.Nodes[n].CPUs[c] = CPUSpec{Kind: IdleCPU}
			}
		}
	}
	return s
}

// genServing draws a serving overlay: a latency-sensitive web class with
// a randomized renewal arrival process, sometimes joined by a
// lower-priority batch class. Rates are modest — a scenario lasts well
// under a second of simulated time, so the classes exercise admission,
// queueing and timeouts without unbounded backlog.
func genServing(rng *rand.Rand) *ServingSpec {
	web := ServingClassSpec{
		Name:        "web",
		Clients:     1 + rng.Intn(3),
		MeanMInstr:  round1(5 + 30*rng.Float64()),
		SizeCV:      round3(0.5 * rng.Float64()),
		MemPerInstr: round3(0.01 * rng.Float64()),
		SLOMs:       round1(50 + 250*rng.Float64()),
		QueueCap:    64,
		Priority:    1,
	}
	rate := round3(1 + 4*rng.Float64())
	switch rng.Intn(3) {
	case 0:
		web.Arrival = fmt.Sprintf("poisson:%v", rate)
	case 1:
		web.Arrival = fmt.Sprintf("gamma:%v,cv=%v", rate, round3(1+rng.Float64()))
	default:
		web.Arrival = fmt.Sprintf("weibull:%v,cv=%v", rate, round3(1+0.8*rng.Float64()))
	}
	if rng.Intn(2) == 0 {
		web.TimeoutMs = round1(300 + 700*rng.Float64())
	}
	if rng.Intn(4) == 0 {
		web.AdmitRate = round3(rate * float64(web.Clients) * (0.5 + 0.5*rng.Float64()))
		web.AdmitBurst = 1 + rng.Intn(8)
	}
	sv := &ServingSpec{Classes: []ServingClassSpec{web}}
	if rng.Intn(2) == 0 {
		sv.Classes = append(sv.Classes, ServingClassSpec{
			Name:       "batch",
			Arrival:    fmt.Sprintf("poisson:%v", round3(0.5+rng.Float64())),
			Clients:    1,
			MeanMInstr: round1(20 + 60*rng.Float64()),
			SizeCV:     round3(0.8 * rng.Float64()),
			SLOMs:      round1(1000 + 2000*rng.Float64()),
			QueueCap:   128,
		})
	}
	return sv
}

func genCPU(rng *rand.Rand) CPUSpec {
	switch r := rng.Intn(20); {
	case r < 5:
		return CPUSpec{Kind: IdleCPU}
	case r < 11:
		return CPUSpec{Kind: CPUBound, Alpha: round3(0.9 + 1.3*rng.Float64())}
	case r < 17:
		return CPUSpec{
			Kind:  MemBound,
			Alpha: round3(1.0 + 0.4*rng.Float64()),
			L2:    round3(0.015 + 0.030*rng.Float64()),
			L3:    round3(0.003 + 0.006*rng.Float64()),
			Mem:   round3(0.008 + 0.020*rng.Float64()),
		}
	default:
		return CPUSpec{
			Kind:  Phased,
			Alpha: round3(1.0 + 0.8*rng.Float64()),
			L2:    round3(0.020 + 0.020*rng.Float64()),
			L3:    round3(0.004 + 0.004*rng.Float64()),
			Mem:   round3(0.010 + 0.012*rng.Float64()),
		}
	}
}

func genWindow(rng *rand.Rand, nNodes, rounds int) (Window, bool) {
	// Need at least round 0 clean before and one clean round after.
	if rounds < 3 {
		return Window{}, false
	}
	from := 1 + rng.Intn(rounds-2)
	maxLen := rounds - 1 - from
	if maxLen < 1 {
		return Window{}, false
	}
	return Window{
		Node: rng.Intn(nNodes),
		From: from,
		To:   from + 1 + rng.Intn(min(5, maxLen)),
	}, true
}

// FaultFree strips partitions, message faults and the UPS failover —
// the variant the differential harness uses for strict trace equality.
func (s Spec) FaultFree() Spec {
	s.Partitions = nil
	s.Policies = nil
	s.UPS = nil
	return s
}

// WithoutUPS strips only the UPS failover (the networked driver models
// grid budgets, not battery drain).
func (s Spec) WithoutUPS() Spec {
	s.UPS = nil
	return s
}

// WithoutServing strips the serving overlay (the networked driver has no
// stations; the differential compares closed-workload traces only).
func (s Spec) WithoutServing() Spec {
	s.Serving = nil
	return s
}

// Validate checks the spec is runnable.
func (s Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("scenario: no nodes")
	}
	for i, n := range s.Nodes {
		if len(n.CPUs) == 0 {
			return fmt.Errorf("scenario: node %d has no CPUs", i)
		}
	}
	if s.Rounds <= 0 {
		return fmt.Errorf("scenario: rounds %d must be positive", s.Rounds)
	}
	if s.SchedulePeriods <= 0 {
		return fmt.Errorf("scenario: schedule periods %d must be positive", s.SchedulePeriods)
	}
	if s.Epsilon <= 0 || s.Epsilon >= 1 {
		return fmt.Errorf("scenario: epsilon %v outside (0,1)", s.Epsilon)
	}
	if s.BudgetW <= 0 {
		return fmt.Errorf("scenario: budget %vW must be positive", s.BudgetW)
	}
	if _, err := s.table(); err != nil {
		return err
	}
	for _, e := range s.Events {
		if e.Round < 0 || e.Watts <= 0 {
			return fmt.Errorf("scenario: bad budget event %+v", e)
		}
	}
	for _, w := range append(append([]Window(nil), s.Partitions...), policyWindows(s.Policies)...) {
		if w.Node < 0 || w.Node >= len(s.Nodes) || w.From < 0 || w.To <= w.From {
			return fmt.Errorf("scenario: bad fault window %+v", w)
		}
	}
	if s.UPS != nil && (s.UPS.FailRound < 0 || s.UPS.CapacityJ <= 0 || s.UPS.RunwaySec <= 0) {
		return fmt.Errorf("scenario: bad UPS spec %+v", *s.UPS)
	}
	if s.Serving != nil {
		if err := s.Serving.validate(); err != nil {
			return err
		}
	}
	return nil
}

func policyWindows(ps []PolicyWindow) []Window {
	out := make([]Window, len(ps))
	for i, p := range ps {
		out[i] = Window{Node: p.Node, From: p.From, To: p.To}
	}
	return out
}

func (s Spec) table() (*power.Table, error) {
	switch s.Table {
	case "paper", "":
		return power.PaperTable1(), nil
	case "s5":
		return power.Section5Table(), nil
	default:
		return nil, fmt.Errorf("scenario: unknown table %q", s.Table)
	}
}

// fvsstConfig is the shared scheduling configuration both drivers use.
func (s Spec) fvsstConfig() (fvsst.Config, error) {
	table, err := s.table()
	if err != nil {
		return fvsst.Config{}, err
	}
	cfg := fvsst.DefaultConfig()
	cfg.Table = table
	cfg.Epsilon = s.Epsilon
	cfg.SchedulePeriods = s.SchedulePeriods
	cfg.UseIdleSignal = true
	cfg.Overhead = fvsst.Overhead{}
	return cfg, cfg.Validate()
}

// machineConfig is node i's quiet (noise-free) machine: determinism and
// trace equality need bit-identical simulation on both sides of the
// differential, so jitter, meter noise and throttle settle are off.
func (s Spec) machineConfig(i int) (machine.Config, error) {
	table, err := s.table()
	if err != nil {
		return machine.Config{}, err
	}
	cfg := machine.P630Config()
	cfg.Name = fmt.Sprintf("n%d", i)
	cfg.NumCPUs = len(s.Nodes[i].CPUs)
	cfg.Table = table
	cfg.Quantum = quantum
	cfg.LatencyJitterSigma = 0
	cfg.Contention = memhier.Contention{}
	cfg.ThrottleSettle = 0
	cfg.Seed = s.Seed + 101 + int64(i)
	return cfg, nil
}

// newMachine builds node i's machine with its CPUs' workloads installed.
func (s Spec) newMachine(i int) (*machine.Machine, error) {
	cfg, err := s.machineConfig(i)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	if s.Serving != nil {
		// Serving scenarios: the station installs its own per-CPU serving
		// cursors, so CPU workload kinds are ignored.
		return m, nil
	}
	for cpu, cs := range s.Nodes[i].CPUs {
		prog, ok := cs.program()
		if !ok {
			continue // idle CPU: no mix
		}
		mix, err := workload.NewMix(prog)
		if err != nil {
			return nil, err
		}
		if err := m.SetMix(cpu, mix); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// servingSeedBase offsets the serving arrival-stream seeds away from the
// machine (Seed+101+i) and jitter (Seed+i) ranges.
const servingSeedBase = 701

// newStation builds node i's serving station and arrival feeder over m.
// Client identities are numbered across classes in class order. Seeding
// follows the package convention: the station draws request sizes from
// machine seed + 17, and the stream for class c, client k draws from
// Seed + 701 + 1000·i + 37·c + k.
func (s Spec) newStation(i int, m *machine.Machine) (*serve.Station, *serve.Feeder, error) {
	classes := make([]serve.Class, len(s.Serving.Classes))
	clients := 0
	for ci, c := range s.Serving.Classes {
		classes[ci] = c.class()
		clients += c.Clients
	}
	st, err := serve.NewStation(m, serve.Config{
		Classes: classes,
		Clients: clients,
		Seed:    s.Seed + 101 + int64(i) + 17,
	})
	if err != nil {
		return nil, nil, err
	}
	feeder := &serve.Feeder{}
	client := 0
	for ci, c := range s.Serving.Classes {
		aspec, err := serve.ParseArrivalSpec(c.Arrival)
		if err != nil {
			return nil, nil, err
		}
		for k := 0; k < c.Clients; k++ {
			stm, err := aspec.NewStream(s.Seed + servingSeedBase + 1000*int64(i) + 37*int64(ci) + int64(k))
			if err != nil {
				return nil, nil, err
			}
			feeder.Add(ci, client, stm)
			client++
		}
	}
	return st, feeder, nil
}

// program renders the CPU spec as an endless workload program.
func (c CPUSpec) program() (workload.Program, bool) {
	const endless = uint64(1e14)
	switch c.Kind {
	case IdleCPU:
		return workload.Program{}, false
	case CPUBound:
		return workload.Program{Name: "cpu", Phases: []workload.Phase{{
			Name: "c", Alpha: c.Alpha, Instructions: endless,
		}}}, true
	case MemBound:
		return workload.Program{Name: "mem", Phases: []workload.Phase{{
			Name: "m", Alpha: c.Alpha,
			Rates:        memhier.AccessRates{L2PerInstr: c.L2, L3PerInstr: c.L3, MemPerInstr: c.Mem},
			Instructions: endless,
		}}}, true
	case Phased:
		// Alternate once between a compute and a memory phase, each a few
		// hundred scheduler windows long, then run the memory phase out.
		return workload.Program{Name: "phased", Phases: []workload.Phase{
			{Name: "c", Alpha: c.Alpha, Instructions: 4e9},
			{Name: "m", Alpha: c.Alpha,
				Rates:        memhier.AccessRates{L2PerInstr: c.L2, L3PerInstr: c.L3, MemPerInstr: c.Mem},
				Instructions: endless},
		}}, true
	default:
		return workload.Program{}, false
	}
}

// source builds the budget source shared by both drivers: the event
// schedule, failed over onto the UPS when the spec has one. The returned
// UPS (nil without one) is the live battery the in-process driver drains.
func (s Spec) source() (power.BudgetSource, *farm.UPS, error) {
	period := float64(s.SchedulePeriods) * quantum
	var events []power.BudgetEvent
	for _, e := range s.Events {
		events = append(events, power.BudgetEvent{
			At:     float64(e.Round) * period,
			Budget: units.Watts(e.Watts),
			Label:  fmt.Sprintf("r%d", e.Round),
		})
	}
	src, err := power.NewBudgetSchedule(units.Watts(s.BudgetW), events...)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: budget schedule: %w", err)
	}
	if s.UPS == nil {
		return src, nil, nil
	}
	ups, err := farm.NewUPS(units.Joules(s.UPS.CapacityJ), s.UPS.RunwaySec)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: UPS: %w", err)
	}
	return farm.Failover{
		At:     float64(s.UPS.FailRound) * period,
		Before: src,
		After:  ups,
	}, ups, nil
}

// partitioned reports whether node i is inside a partition window at
// round r.
func (s Spec) partitioned(node, round int) bool {
	for _, w := range s.Partitions {
		if w.Node == node && round >= w.From && round < w.To {
			return true
		}
	}
	return false
}

// faultAffected reports whether round r may legally diverge between the
// in-process and networked runs: any partition window covering it, or any
// message-fault policy that has started (message faults can skew a remote
// machine's simulated time permanently, so their effect extends past the
// window).
func (s Spec) faultAffected(round int) bool {
	for _, w := range s.Partitions {
		if round >= w.From && round < w.To {
			return true
		}
	}
	for _, p := range s.Policies {
		if round >= p.From {
			return true
		}
	}
	return false
}

func round1(v float64) float64 { return float64(int(v*10+0.5)) / 10 }
func round3(v float64) float64 { return float64(int(v*1000+0.5)) / 1000 }
