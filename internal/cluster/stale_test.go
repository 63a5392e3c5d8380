package cluster

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/units"
)

// A coordinator actuation spends one RTT in flight. If the node's machine
// is swapped (reprovisioned, reset) while the message is in transit, the
// stale actuation must be dropped rather than applied to the replacement,
// which the decision was never made for.
func TestStaleActuationNotAppliedAfterMachineSwap(t *testing.T) {
	// A budget of 200 W over two 4-CPU nodes forces demotions below f_max,
	// so in-flight actuations differ from a fresh machine's default.
	c := newTwoNodeCluster(t, units.Watts(200))

	// Run until a scheduling pass has queued actuations.
	for len(c.pending) == 0 {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	target := c.pending[0].proc.Node
	inflight := map[int]units.Frequency{}
	for _, p := range c.pending {
		if p.proc.Node == target {
			inflight[p.proc.CPU] = p.f
		}
	}

	// Swap the target node's machine while the actuations are in flight.
	mcfg := quietMachineConfig()
	mcfg.Seed = 99
	fresh, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	c.nodes[target].M = fresh
	defaults := make([]units.Frequency, fresh.NumCPUs())
	for cpu := range defaults {
		defaults[cpu] = fresh.EffectiveFrequency(cpu)
	}

	// Step past the RTT so every in-flight actuation matures, but stop
	// short of the next timer pass, which would legitimately re-actuate
	// the fresh machine.
	for i := 0; i < 3; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.pending) != 0 {
		t.Fatalf("%d actuations still in flight; test stepped too few quanta", len(c.pending))
	}
	for cpu, f := range inflight {
		if f == defaults[cpu] {
			continue // indistinguishable from the default; no signal
		}
		if got := fresh.EffectiveFrequency(cpu); got == f {
			t.Errorf("stale actuation %v delivered to swapped machine cpu %d", f, cpu)
		}
	}
}

func TestStaleWindowsMatchesQuantumRule(t *testing.T) {
	// With every window exactly one quantum long, seconds-based staleness
	// reproduces the old ⌈RTT/quantum⌉ window count.
	c := newTwoNodeCluster(t, units.Watts(900))
	if err := runUntil(c, 1.0); err != nil {
		t.Fatal(err)
	}
	hist := c.nodes[0].sampler.History(0)
	q := c.nodes[0].M.Config().Quantum
	if got, want := staleWindows(hist), int(math.Ceil(rtt/q)); got != want {
		t.Errorf("staleWindows = %d, want ⌈%v/%v⌉ = %d", got, rtt, q, want)
	}
}

// A node's sampler reads the machine it was built on. After a swap, Step
// samples the replacement: a busy CPU there has its own observation once
// one aggregation window has cleared the RTT (plus the quantum that
// primes the new sampler), instead of the old machine's last windows
// standing in for it for good.
func TestSwappedMachineIsSampled(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(200))
	if err := runUntil(c, 0.5); err != nil {
		t.Fatal(err)
	}
	// The memory-bound db node becomes a CPU-bound one.
	c.nodes[1].M = busyMachine(t, cpuProg(1e12), 99)
	steps := c.cfg.SchedulePeriods + int(math.Ceil(rtt/c.quantum)) + 1
	for range steps {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range c.buildInputs() {
		if in.Proc != (ProcRef{Node: 1, CPU: 0}) {
			continue
		}
		if in.Obs == nil {
			t.Fatalf("swapped-in busy CPU unobserved after %d Steps", steps)
		}
		if d := in.Obs.Delta; d.Instructions == 0 || d.MemRefs != 0 {
			t.Errorf("observation %+v is not the CPU-bound replacement's", d)
		}
	}
}
