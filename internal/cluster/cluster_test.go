package cluster

import (
	"strings"
	"testing"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

func quietMachineConfig() machine.Config {
	cfg := machine.P630Config()
	cfg.LatencyJitterSigma = 0
	cfg.Contention = memhier.Contention{}
	cfg.ThrottleSettle = 0
	return cfg
}

func clusterConfig() fvsst.Config {
	cfg := fvsst.DefaultConfig()
	cfg.Overhead = fvsst.Overhead{}
	cfg.UseIdleSignal = true
	return cfg
}

func memProg(instr uint64) workload.Program {
	return workload.Program{Name: "mem", Phases: []workload.Phase{{
		Name: "m", Alpha: 1.1,
		Rates:        memhier.AccessRates{L2PerInstr: 0.030, L3PerInstr: 0.006, MemPerInstr: 0.0186},
		Instructions: instr,
	}}}
}

func cpuProg(instr uint64) workload.Program {
	return workload.Program{Name: "cpu", Phases: []workload.Phase{{
		Name: "c", Alpha: 1.4, Instructions: instr,
	}}}
}

func newTwoNodeCluster(t *testing.T, budget units.Power) *Coordinator {
	t.Helper()
	mkNode := func(name string, prog workload.Program, seed int64) *Node {
		mcfg := quietMachineConfig()
		mcfg.Seed = seed
		m, err := machine.New(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		mix, err := workload.NewMix(prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMix(0, mix); err != nil {
			t.Fatal(err)
		}
		return &Node{Name: name, M: m}
	}
	c, err := New(clusterConfig(), budget,
		mkNode("app", cpuProg(1e12), 1),
		mkNode("db", memProg(1e12), 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runUntil steps c one quantum at a time until simulation time until.
func runUntil(c *Coordinator, until float64) error {
	for c.Now() < until {
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// watchBudgetChanges collects c's budget-change passes through its
// quantum hook. Step runs such a pass before the machines step, so the
// hook sees it as the last decision even when the Step ends in a timer
// pass, which a check after Step would see instead.
func watchBudgetChanges(c *Coordinator) *[]Decision {
	var seen []Decision
	c.SetQuantumHook(func(now float64) {
		if d, ok := c.LastDecision(); ok && d.Trigger == "budget-change" && d.At == now {
			seen = append(seen, d)
		}
	}, nil)
	return &seen
}

// runUntilDone steps c until every node's jobs complete or deadline
// passes and reports whether every job completed.
func runUntilDone(c *Coordinator, deadline float64) (bool, error) {
	for c.Now() < deadline && !jobsDone(c) {
		if err := c.Step(); err != nil {
			return false, err
		}
	}
	return jobsDone(c), nil
}

func jobsDone(c *Coordinator) bool {
	for _, n := range c.Nodes() {
		if !n.M.AllJobsDone() {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	cfg := clusterConfig()
	if _, err := New(cfg, units.Watts(100)); err == nil {
		t.Error("no nodes accepted")
	}
	if _, err := New(cfg, 0, &Node{}); err == nil {
		t.Error("zero budget accepted")
	}
	m, _ := machine.New(quietMachineConfig())
	if _, err := New(cfg, units.Watts(100), &Node{Name: "", M: m}); err == nil {
		t.Error("unnamed node accepted")
	}
	if _, err := New(cfg, units.Watts(100), &Node{Name: "x", M: nil}); err == nil {
		t.Error("machine-less node accepted")
	}
	// A cluster has one quantum: a node whose machine runs another is an
	// input error.
	mcfg := quietMachineConfig()
	mcfg.Quantum = 0.005
	m2, _ := machine.New(mcfg)
	if _, err := New(cfg, units.Watts(100),
		&Node{Name: "a", M: m}, &Node{Name: "b", M: m2}); err == nil || !strings.Contains(err.Error(), "one quantum") {
		t.Errorf("mismatched quanta: err %v, want a one-quantum rejection", err)
	}
}

func TestGlobalBudgetEnforcedAcrossNodes(t *testing.T) {
	// Two 4-CPU nodes, global budget 600 W (< 2×560 W unconstrained).
	c := newTwoNodeCluster(t, units.Watts(600))
	if err := runUntil(c, 1.0); err != nil {
		t.Fatal(err)
	}
	last, ok := c.LastDecision()
	if !ok {
		t.Fatal("no decisions")
	}
	if !last.BudgetMet {
		t.Error("600W across 8 CPUs should be feasible")
	}
	if last.TablePower > units.Watts(600) {
		t.Errorf("table power %v over budget", last.TablePower)
	}
	if got := c.TotalCPUPower(); got > units.Watts(610) {
		t.Errorf("actual cluster CPU power %v over budget", got)
	}
	if len(last.Assignments) != 8 {
		t.Errorf("assignments = %d, want 8", len(last.Assignments))
	}
}

func TestWorkloadDiversityExploited(t *testing.T) {
	// Under a tight budget the memory-bound db node should be throttled
	// deeper than the CPU-bound app node — the paper's central cluster
	// claim (§4.2).
	c := newTwoNodeCluster(t, units.Watts(500))
	if err := runUntil(c, 1.0); err != nil {
		t.Fatal(err)
	}
	last, _ := c.LastDecision()
	var appF, dbF units.Frequency
	for _, a := range last.Assignments {
		if a.Proc.CPU != 0 {
			continue
		}
		if a.Proc.Node == 0 {
			appF = a.Actual
		} else {
			dbF = a.Actual
		}
	}
	if dbF >= appF {
		t.Errorf("db CPU at %v not below app CPU at %v", dbF, appF)
	}
}

func TestActuationDelayedByRTT(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(600))
	// After the very first schedule pass, actuations are pending for RTT.
	quanta := clusterConfig().SchedulePeriods
	for i := 0; i < quanta; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.pending) == 0 {
		t.Fatal("no pending actuations right after a schedule pass")
	}
	for _, p := range c.pending {
		if p.due != c.Now()+rtt {
			t.Fatalf("actuation due at %v, want pass time %v + RTT %v", p.due, c.Now(), rtt)
		}
	}
	// Within the RTT the idle CPUs are still at nominal.
	n := c.Nodes()[0]
	if f := n.M.EffectiveFrequency(1); f != units.GHz(1) {
		t.Errorf("actuation landed before RTT: cpu1 at %v", f)
	}
	// After the RTT it lands (idle CPU → table minimum): the first Step
	// runs the quantum that outlasts the RTT, the second delivers.
	for i := 0; i < 2; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if f := n.M.EffectiveFrequency(1); f >= units.GHz(1) {
		t.Errorf("idle CPU still at %v after RTT", f)
	}
}

func TestBudgetScheduleTriggersGlobalReschedule(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(1120))
	sched, err := power.NewBudgetSchedule(units.Watts(1120),
		power.BudgetEvent{At: 0.3, Budget: units.Watts(500), Label: "site cap"})
	if err != nil {
		t.Fatal(err)
	}
	c.SetBudgetSource(sched)
	changes := watchBudgetChanges(c)
	if err := runUntil(c, 0.8); err != nil {
		t.Fatal(err)
	}
	for _, d := range *changes {
		if d.Budget.W() != 500 {
			t.Errorf("budget-change decision budget = %v", d.Budget)
		}
	}
	if len(*changes) == 0 {
		t.Error("no budget-change decision")
	}
	if got := c.TotalCPUPower(); got > units.Watts(510) {
		t.Errorf("cluster power %v after cap", got)
	}
}

func TestCompletionsAcrossNodes(t *testing.T) {
	mkNode := func(name string, seed int64) *Node {
		mcfg := quietMachineConfig()
		mcfg.Seed = seed
		m, _ := machine.New(mcfg)
		mix, _ := workload.NewMix(cpuProg(5e8))
		m.SetMix(0, mix)
		return &Node{Name: name, M: m}
	}
	c, err := New(clusterConfig(), units.Watts(1120), mkNode("a", 1), mkNode("b", 2))
	if err != nil {
		t.Fatal(err)
	}
	done, err := runUntilDone(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("jobs did not finish")
	}
	for _, n := range c.Nodes() {
		if comps := n.M.Completions(); len(comps) != 1 {
			t.Errorf("node %s completions = %+v, want one", n.Name, comps)
		}
	}
}

func TestTieredClusterConstruction(t *testing.T) {
	nodes, err := Tiered(quietMachineConfig(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("tiers = %d", len(nodes))
	}
	wantNames := []string{"web", "app", "db"}
	for i, n := range nodes {
		if n.Name != wantNames[i] {
			t.Errorf("tier %d = %s", i, n.Name)
		}
	}
	// The db node must carry memory-bound work on every populated CPU.
	db := nodes[2]
	populated := 0
	for cpu := 0; cpu < db.M.NumCPUs(); cpu++ {
		if db.M.Mix(cpu) != nil {
			populated++
		}
	}
	if populated != 4 {
		t.Errorf("db node has %d populated CPUs, want 4", populated)
	}
	// And the cluster runs end to end under a global cap.
	c, err := New(clusterConfig(), units.Watts(900), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	if err := runUntil(c, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalCPUPower(); got > units.Watts(910) {
		t.Errorf("tiered cluster power %v over cap", got)
	}
}

func TestQuantumHookBracketsStepping(t *testing.T) {
	c := newTwoNodeCluster(t, 400)
	var log []string
	c.SetQuantumHook(
		func(now float64) { log = append(log, "before") },
		func(now float64) { log = append(log, "after") },
	)
	for i := 0; i < 3; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(log) != 6 {
		t.Fatalf("hook calls = %d, want 6", len(log))
	}
	for i := 0; i < len(log); i += 2 {
		if log[i] != "before" || log[i+1] != "after" {
			t.Fatalf("hook order wrong at %d: %v", i, log)
		}
	}
	// Nil hooks are allowed (and the default).
	c.SetQuantumHook(nil, nil)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
}
