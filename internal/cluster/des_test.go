package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/farm"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

// runStepped is the reference Run is pinned against: one real Step per
// quantum, nothing skipped.
func runStepped(c *Coordinator, until float64) error {
	for c.Now() < until {
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// clusterFingerprint renders everything Run must preserve: every
// decision with its assignments, every node machine's clock, energy and
// counters, and the completion log — all through %v so single-bit float
// drift shows.
func clusterFingerprint(c *Coordinator) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v budget=%v pending=%d\n", c.Now(), c.Budget(), len(c.pending))
	for _, d := range c.Decisions() {
		fmt.Fprintf(&b, "pass %v %s %v %v %v\n", d.At, d.Trigger, d.Budget, d.TablePower, d.BudgetMet)
		for _, a := range d.Assignments {
			fmt.Fprintf(&b, "  %d/%d %v %v %v %v %v\n",
				a.Proc.Node, a.Proc.CPU, a.Desired, a.Actual, a.Voltage, a.PredictedLoss, a.Idle)
		}
	}
	for _, n := range c.nodes {
		fmt.Fprintf(&b, "node %s t=%v e=%v ce=%v\n", n.Name, n.M.Now(), n.M.Energy(), n.M.CPUEnergy())
		for i := 0; i < n.M.NumCPUs(); i++ {
			s, err := n.M.ReadCounters(i)
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(&b, "  cpu%d %+v f=%v\n", i, s, n.M.EffectiveFrequency(i))
		}
	}
	for _, jc := range c.Completions() {
		fmt.Fprintf(&b, "done %s/%d %s %v\n", jc.Node, jc.CPU, jc.Program, jc.At)
	}
	return b.String()
}

// diffCluster builds two coordinators via mk, steps one quantum by quantum
// and runs the other through Run, and requires byte-identical state at
// every checkpoint.
func diffCluster(t *testing.T, mk func() *Coordinator, checkpoints []float64) {
	t.Helper()
	ref, des := mk(), mk()
	for _, ck := range checkpoints {
		if err := runStepped(ref, ck); err != nil {
			t.Fatalf("stepped to %v: %v", ck, err)
		}
		if err := des.Run(ck); err != nil {
			t.Fatalf("Run(%v): %v", ck, err)
		}
		want, got := clusterFingerprint(ref), clusterFingerprint(des)
		if got != want {
			t.Fatalf("diverged at t=%v:\n--- stepped ---\n%s--- Run ---\n%s", ck, want, got)
		}
	}
}

func TestRunDESMatchesRunTiered(t *testing.T) {
	mk := func() *Coordinator {
		nodes, err := Tiered(quietMachineConfig(), 0.02)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(clusterConfig(), units.Watts(900), nodes...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	diffCluster(t, mk, []float64{0.3, 1.0, 2.5, 6.0})
}

func TestRunDESMatchesRunBudgetSchedule(t *testing.T) {
	mk := func() *Coordinator {
		c := newTwoNodeCluster(t, units.Watts(900))
		c.SetBudgetSource(scheduleSource(t, units.Watts(900),
			power.BudgetEvent{At: 0.8, Budget: units.Watts(500), Label: "fail"},
			power.BudgetEvent{At: 2.2, Budget: units.Watts(900), Label: "restore"},
		))
		return c
	}
	diffCluster(t, mk, []float64{0.5, 1.0, 3.0, 5.0})
}

func TestRunDESMatchesRunLeaseExpiry(t *testing.T) {
	// The lease runs out at 0.155, inside what would otherwise be a quiet
	// span: quietSpan must stop short of it, and the one lease-expire event
	// Holder.BudgetAt emits on its first call past expiry must carry the
	// same time whether quietSpan or Step made that call.
	var sinks []*obs.Buffer
	mk := func() *Coordinator {
		c := newTwoNodeCluster(t, units.Watts(900))
		buf := &obs.Buffer{}
		sinks = append(sinks, buf)
		h, err := farm.NewHolder("pair", units.Watts(200), buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		h.Grant(farm.Lease{Member: "pair", Budget: units.Watts(600), Expires: 0.155})
		c.SetBudgetSource(h)
		return c
	}
	diffCluster(t, mk, []float64{0.14, 0.3, 1.0})
	var at []float64
	for _, buf := range sinks {
		if n := buf.Count(obs.EventLeaseExpire, ""); n != 1 {
			t.Fatalf("%d lease-expire events, want 1", n)
		}
		for _, e := range buf.Events() {
			if e.Type == obs.EventLeaseExpire {
				at = append(at, e.At)
			}
		}
	}
	if at[0] != at[1] {
		t.Errorf("lease-expire at %v stepped, %v under Run", at[0], at[1])
	}
}

// TestQuietSpan pins what Run treats as interesting, so the byte
// comparisons above cannot pass because nothing was ever skipped.
func TestQuietSpan(t *testing.T) {
	const until = 10.0
	// idle returns a two-node cluster with no work, two quanta past its
	// first pass: the actuations have landed and the next pass is 8 away.
	idle := func(t *testing.T) *Coordinator {
		var nodes []*Node
		for _, name := range []string{"a", "b"} {
			m, err := machine.New(quietMachineConfig())
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, &Node{Name: name, M: m, RTT: 0.005})
		}
		c, err := New(clusterConfig(), units.Watts(900), nodes...)
		if err != nil {
			t.Fatal(err)
		}
		if err := runStepped(c, 0.115); err != nil {
			t.Fatal(err)
		}
		if len(c.pending) != 0 {
			t.Fatalf("%d actuations still pending at t=%v", len(c.pending), c.Now())
		}
		return c
	}
	if got := idle(t).quietSpan(until); got != 7 {
		t.Errorf("idle cluster at t=0.12: span %d, want 7 (up to the next pass)", got)
	}
	sched := func(at float64) farm.BudgetSource {
		return scheduleSource(t, units.Watts(900), power.BudgetEvent{At: at, Budget: units.Watts(500)})
	}
	for _, tc := range []struct {
		name string
		arm  func(c *Coordinator)
		want int
	}{
		{"sink", func(c *Coordinator) { c.SetSink(obs.NopSink{}) }, 0},
		{"quantum hook", func(c *Coordinator) { c.SetQuantumHook(nil, func(float64) {}) }, 0},
		{"pending actuation", func(c *Coordinator) { c.pending = append(c.pending, pendingActuation{due: c.Now()}) }, 0},
		{"budget edge at now", func(c *Coordinator) { c.SetBudgetSource(sched(c.Now())) }, 0},
		{"non-EdgeSource source", func(c *Coordinator) {
			c.SetBudgetSource(budgetFunc(func(float64) units.Power { return units.Watts(900) }))
		}, 0},
		{"budget edge three quanta out", func(c *Coordinator) { c.SetBudgetSource(sched(c.Now() + 0.035)) }, 3},
	} {
		c := idle(t)
		tc.arm(c)
		if got := c.quietSpan(until); got != tc.want {
			t.Errorf("%s: span %d, want %d", tc.name, got, tc.want)
		}
	}
}

// budgetFunc is a BudgetSource that cannot announce its edges.
type budgetFunc func(now float64) units.Power

func (f budgetFunc) BudgetAt(now float64) units.Power { return f(now) }

func TestRunWithQuantumHookStepsEveryQuantum(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(900))
	var before, after int
	c.SetQuantumHook(func(float64) { before++ }, func(float64) { after++ })
	if err := c.Run(1.0); err != nil {
		t.Fatal(err)
	}
	if want := c.loop.Ticks(); before != want || after != want {
		t.Errorf("hooks ran %d/%d times over %d quanta", before, after, want)
	}
}

func TestRunDESMatchesRunWithArrivals(t *testing.T) {
	// Idle gaps between arrival bursts are where skipping actually pays;
	// the machines must absorb the bursts identically.
	mk := func() *Coordinator {
		c := newTwoNodeCluster(t, units.Watts(700))
		for ni, n := range c.Nodes() {
			var sched workload.Schedule
			for k := 0; k < 3; k++ {
				sched = append(sched, workload.Arrival{
					At:      0.9 + float64(k)*1.7 + float64(ni)*0.3,
					CPU:     (k + ni) % n.M.NumCPUs(),
					Program: workload.Gzip(0.002),
				})
			}
			if err := n.M.Submit(sched); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	diffCluster(t, mk, []float64{0.5, 2.0, 4.0, 8.0})
}

func TestRunDESHeterogeneousQuanta(t *testing.T) {
	// One node runs a 5 ms machine under a 10 ms coordinator cadence: New
	// accepts it, both engines advance it to each cadence edge, and the
	// differential still holds byte for byte.
	mk := func() *Coordinator {
		mkNode := func(name string, quantum float64, seed int64) *Node {
			mcfg := quietMachineConfig()
			mcfg.Quantum = quantum
			mcfg.Seed = seed
			m, err := machine.New(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			mix, err := workload.NewMix(cpuProg(2e9))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetMix(0, mix); err != nil {
				t.Fatal(err)
			}
			return &Node{Name: name, M: m, RTT: 0.005}
		}
		c, err := New(clusterConfig(), units.Watts(700),
			mkNode("coarse", 0.010, 1), mkNode("fine", 0.005, 2))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	diffCluster(t, mk, []float64{0.5, 2.0, 5.0})
}

func TestStaleWindowsMatchesQuantumRule(t *testing.T) {
	// With every window exactly one quantum long, seconds-based staleness
	// reproduces the old ⌈RTT/quantum⌉ window count.
	c := newTwoNodeCluster(t, units.Watts(900))
	if err := c.Run(1.0); err != nil {
		t.Fatal(err)
	}
	hist := c.nodes[0].sampler.History(0)
	q := c.loop.Quantum()
	for _, tc := range []struct {
		rtt  float64
		want int
	}{{0, 0}, {0.005, 1}, {0.010, 1}, {0.015, 2}, {0.045, 5}} {
		if got := staleWindows(hist, tc.rtt); got != tc.want {
			t.Errorf("staleWindows(rtt=%v) = %d, want %d (q=%v)", tc.rtt, got, tc.want, q)
		}
	}
}
