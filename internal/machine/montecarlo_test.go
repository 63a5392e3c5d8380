package machine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/memhier"
	"repro/internal/units"
	"repro/internal/workload"
)

func mcConfig() Config {
	cfg := P630Config()
	cfg.MonteCarloExec = true
	cfg.LatencyJitterSigma = 0 // variance comes from miss discreteness
	cfg.Contention = memhier.Contention{}
	cfg.ThrottleSettle = 0
	return cfg
}

func memPhaseProg(instr uint64) workload.Program {
	return workload.Program{Name: "mem", Phases: []workload.Phase{{
		Name: "m", Alpha: 1.1,
		Rates:        memhier.AccessRates{L2PerInstr: 0.030, L3PerInstr: 0.006, MemPerInstr: 0.024},
		Instructions: instr,
	}}}
}

// TestMonteCarloMatchesAnalyticThroughput: the two execution models agree
// on mean throughput to well under 1%.
func TestMonteCarloMatchesAnalyticThroughput(t *testing.T) {
	run := func(mc bool) uint64 {
		cfg := mcConfig()
		cfg.MonteCarloExec = mc
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mix, _ := workload.NewMix(memPhaseProg(1e12))
		m.SetMix(0, mix)
		runUntil(m, 1.0)
		s, _ := m.ReadCounters(0)
		return s.Instructions
	}
	mc, ana := run(true), run(false)
	rel := math.Abs(float64(mc)-float64(ana)) / float64(ana)
	if rel > 0.01 {
		t.Errorf("MC throughput %d vs analytic %d: %.3f%% apart", mc, ana, rel*100)
	}
}

// TestMonteCarloCounterRatesConverge: drawn reference rates match the
// phase's configured rates.
func TestMonteCarloCounterRatesConverge(t *testing.T) {
	m, err := New(mcConfig())
	if err != nil {
		t.Fatal(err)
	}
	mix, _ := workload.NewMix(memPhaseProg(1e12))
	m.SetMix(0, mix)
	runUntil(m, 1.0)
	s, _ := m.ReadCounters(0)
	if s.Instructions == 0 {
		t.Fatal("nothing retired")
	}
	for _, c := range []struct {
		name string
		got  uint64
		want float64
	}{
		{"L2", s.L2Refs, 0.030},
		{"L3", s.L3Refs, 0.006},
		{"mem", s.MemRefs, 0.024},
	} {
		rate := float64(c.got) / float64(s.Instructions)
		if math.Abs(rate-c.want)/c.want > 0.03 {
			t.Errorf("%s rate %.5f vs configured %.5f", c.name, rate, c.want)
		}
	}
}

// TestMonteCarloProducesWindowVariance: per-window IPC varies under MC
// execution (miss discreteness) but is constant under the quiet analytic
// model — the property that makes MC a second predictor-noise source.
func TestMonteCarloProducesWindowVariance(t *testing.T) {
	windowIPCs := func(mc bool) []float64 {
		cfg := mcConfig()
		cfg.MonteCarloExec = mc
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mix, _ := workload.NewMix(memPhaseProg(1e12))
		m.SetMix(0, mix)
		var out []float64
		var prevI, prevC uint64
		for q := 0; q < 100; q++ {
			m.Step()
			s, _ := m.ReadCounters(0)
			di, dc := s.Instructions-prevI, s.Cycles-prevC
			prevI, prevC = s.Instructions, s.Cycles
			if dc > 0 {
				out = append(out, float64(di)/float64(dc))
			}
		}
		return out
	}
	variance := func(xs []float64) float64 {
		var mean, m2 float64
		for i, x := range xs {
			d := x - mean
			mean += d / float64(i+1)
			m2 += d * (x - mean)
		}
		return m2 / float64(len(xs))
	}
	vMC := variance(windowIPCs(true))
	vAna := variance(windowIPCs(false))
	if vMC <= vAna {
		t.Errorf("MC variance %.3g not above analytic %.3g", vMC, vAna)
	}
}

// TestMonteCarloSchedulerConvergence: the fvsst loop still finds the
// saturation frequency when driven by MC execution — checked indirectly by
// running the machine at the ε choice the analytic model predicts and
// confirming counters justify it. (The full scheduler-over-MC path is
// exercised in the fvsst package tests via the Target interface.)
func TestMonteCarloDeterministicPerSeed(t *testing.T) {
	run := func() uint64 {
		m, err := New(mcConfig())
		if err != nil {
			t.Fatal(err)
		}
		mix, _ := workload.NewMix(memPhaseProg(1e12))
		m.SetMix(0, mix)
		runUntil(m, 0.5)
		s, _ := m.ReadCounters(0)
		return s.Cycles
	}
	if run() != run() {
		t.Error("same seed diverged under MC execution")
	}
}

// TestMonteCarloTimeAccounting: the overshoot debt keeps long-run time
// consistent — total non-halted cycles stay within one block of
// frequency × busy-time.
func TestMonteCarloTimeAccounting(t *testing.T) {
	m, err := New(mcConfig())
	if err != nil {
		t.Fatal(err)
	}
	mix, _ := workload.NewMix(memPhaseProg(1e12))
	m.SetMix(2, mix)
	runUntil(m, 2.0)
	s, _ := m.ReadCounters(2)
	wantCycles := 2.0 * 1e9 // 2 s at 1 GHz
	rel := math.Abs(float64(s.Cycles)-wantCycles) / wantCycles
	if rel > 0.01 {
		t.Errorf("cycle accounting off by %.2f%%", rel*100)
	}
}

// poissonOracle is poisson without the memo: e^−λ computed on every
// Knuth draw.
func poissonOracle(rng *rand.Rand, lambda float64) uint64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return uint64(v + 0.5)
	}
	limit := math.Exp(-lambda)
	p := 1.0
	var k uint64
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// runJobMCOracle is runJobMC block by block: every block advances the
// cursor by itself and draws its three counts, whether its phase has a
// rate to draw from or not.
func (m *Machine) runJobMCOracle(c *cpu, job *workload.Cursor, f units.Frequency, latScale, avail float64, stats *QuantumStats) (used float64, postL1 float64) {
	budgetCycles := avail * f.Hz()
	var consumed float64
	rng := m.random()
	for consumed < budgetCycles && !job.Done() {
		phase := job.Current()
		coreCPI, _ := job.PhaseCost()
		n, _ := job.AdvanceWithinPhase(mcBlock)
		if n == 0 {
			break
		}
		nf := float64(n)
		core := coreCPI * nf
		l2 := poissonOracle(rng, nf*phase.Rates.L2PerInstr)
		l3 := poissonOracle(rng, nf*phase.Rates.L3PerInstr)
		mem := poissonOracle(rng, nf*phase.Rates.MemPerInstr)
		memSeconds := latScale * (float64(l2)*p630L2 + float64(l3)*p630L3 + float64(mem)*p630Mem)
		cyc := core + memSeconds*f.Hz()
		consumed += cyc

		c.totals.Instructions += n
		c.totals.Cycles += uint64(cyc)
		c.totals.L2Refs += l2
		c.totals.L3Refs += l3
		c.totals.MemRefs += mem
		stats.Instructions += n
		stats.Cycles += uint64(cyc)
		postL1 += float64(l2 + l3 + mem)
	}
	if consumed > budgetCycles {
		// Carry the overshoot into the next quantum as debt.
		c.stolenDebt += (consumed - budgetCycles) / f.Hz()
		consumed = budgetCycles
	}
	return consumed / f.Hz(), postL1
}

// mcFuzzProgram builds a program from shape, two bytes a phase. The first
// byte picks the rates (low two bits: none, a tiny positive L2 rate, a
// memory mix, or memory-only at a λ past the normal cut) and a block count
// k (the rest); the second picks the length: under one block, k blocks,
// or k blocks plus or minus one instruction. The byte after the phases,
// if any, picks LoopFrom and Loops (−1 to 2).
func mcFuzzProgram(shape []byte) workload.Program {
	p := workload.Program{Name: "mcfuzz"}
	for len(shape) >= 2 && len(p.Phases) < 8 {
		a, b := shape[0], shape[1]
		shape = shape[2:]
		var rates memhier.AccessRates
		switch a % 4 {
		case 1:
			rates.L2PerInstr = 1e-300
		case 2:
			rates = memhier.AccessRates{L2PerInstr: 0.004, L3PerInstr: 0.0008, MemPerInstr: 0.0003}
		case 3:
			rates.MemPerInstr = 0.024
		}
		k := uint64(a>>2) * 37 // up to ≈ 2300 blocks, past one quantum
		if k == 0 {
			k = 1
		}
		n := k * mcBlock
		switch b % 4 {
		case 0:
			n = 1 + uint64(b)*16%(mcBlock-1)
		case 2:
			n++
		case 3:
			n--
		}
		p.Phases = append(p.Phases, workload.Phase{
			Name: "p", Alpha: 0.5 + float64(b)/128, Rates: rates, Instructions: n,
			NonMemStallCyclesPerInstr: float64(a) / 256,
		})
	}
	if len(p.Phases) == 0 {
		p.Phases = []workload.Phase{{Name: "p", Alpha: 1, Instructions: 3 * mcBlock}}
	}
	if len(shape) > 0 {
		p.LoopFrom = int(shape[0]>>2) % len(p.Phases)
		p.Loops = int(shape[0]%4) - 1
	}
	return p
}

// FuzzRunJobMC holds runJobMC to runJobMCOracle, the per-block loop it
// replaced: from the same cpu, cursor and seed, call after call, the two
// must agree on every output, counter, debt and cursor position bit for
// bit, and leave their sources on the same next draw. The seed corpus is
// under testdata/fuzz/FuzzRunJobMC.
func FuzzRunJobMC(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x01, 0x02, 0x03, 0x05, 0x06, 0x13}, 1e9, 1.0, 0.01)
	f.Fuzz(func(t *testing.T, seed int64, shape []byte, fHz, latScale, avail float64) {
		for _, v := range []float64{fHz, latScale, avail} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		// The machine's ranges: a throttled p630 frequency, a latency
		// scale floored at 0.5, and at most a few quanta at a time, cut
		// to about 10 000 blocks of the program's shortest phase (a
		// one-instruction phase looping forever is a block per
		// instruction).
		fHz = 1e8 + math.Mod(math.Abs(fHz), 2e9)
		latScale = 0.5 + math.Mod(math.Abs(latScale), 4)
		avail = math.Mod(math.Abs(avail), 0.03)
		prog := mcFuzzProgram(shape)
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		shortest := uint64(mcBlock)
		for _, ph := range prog.Phases {
			shortest = min(shortest, ph.Instructions)
		}
		avail = min(avail, 4000*float64(shortest)/fHz)
		got, want := &Machine{cfg: Config{Seed: seed}, cpus: []*cpu{{}}}, &Machine{cfg: Config{Seed: seed}}
		gotJob, err := workload.NewCursor(prog)
		if err != nil {
			t.Fatal(err)
		}
		wantJob, _ := workload.NewCursor(prog)
		gc, wc := got.cpus[0], &cpu{}
		for call := 0; call < 6 && !wantJob.Done(); call++ {
			var gs, ws QuantumStats
			gu, gp := got.runJobMC(0, gc, gotJob, units.Frequency(fHz), latScale, avail, &gs)
			wu, wp := want.runJobMCOracle(wc, wantJob, units.Frequency(fHz), latScale, avail, &ws)
			if math.Float64bits(gu) != math.Float64bits(wu) || math.Float64bits(gp) != math.Float64bits(wp) {
				t.Fatalf("call %d: used, postL1 = %v, %v; oracle %v, %v", call, gu, gp, wu, wp)
			}
			if gc.totals != wc.totals || gs != ws || math.Float64bits(gc.stolenDebt) != math.Float64bits(wc.stolenDebt) {
				t.Fatalf("call %d: totals %+v stats %+v debt %v; oracle %+v %+v %v", call, gc.totals, gs, gc.stolenDebt, wc.totals, ws, wc.stolenDebt)
			}
			if gotJob.Current() != wantJob.Current() || gotJob.RemainingInPhase() != wantJob.RemainingInPhase() || gotJob.Done() != wantJob.Done() {
				t.Fatalf("call %d: cursor at %p+%d done=%v; oracle %p+%d done=%v", call,
					gotJob.Current(), gotJob.RemainingInPhase(), gotJob.Done(), wantJob.Current(), wantJob.RemainingInPhase(), wantJob.Done())
			}
			if g, w := got.random().Float64(), want.random().Float64(); g != w {
				t.Fatalf("call %d: next draw %v; oracle %v", call, g, w)
			}
		}
	})
}

// TestPoissonMemoMatchesExp feeds one memo a λ sequence that repeats,
// alternates, returns to 0 and crosses the normal cut at 64: every draw
// must be the memo-less draw on a twin source, and after a Knuth draw the
// memo must hold math.Exp(-λ) bit for bit.
func TestPoissonMemoMatchesExp(t *testing.T) {
	got, want := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	var memo expMemo
	seq := []float64{3.5, 3.5, 3.5, 0.25, 3.5, 0.25, 0, 0.25, 64, 64.5, 64, 12.288, 1e-300, 1e-300, 0, 98.304, 12.288, 12.288}
	for i, lambda := range seq {
		if g, w := poisson(got, lambda, &memo), poissonOracle(want, lambda); g != w {
			t.Fatalf("draw %d (λ=%v): %d; memo-less %d", i, lambda, g, w)
		}
		if lambda > 0 && lambda <= 64 {
			if memo.lambda != lambda || math.Float64bits(memo.limit) != math.Float64bits(math.Exp(-lambda)) {
				t.Fatalf("draw %d (λ=%v): memo holds (%v, %v), want (%v, %v)", i, lambda, memo.lambda, memo.limit, lambda, math.Exp(-lambda))
			}
		}
	}
	if got.Float64() != want.Float64() {
		t.Fatal("the sources moved apart")
	}
}
