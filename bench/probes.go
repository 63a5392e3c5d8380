package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/farm"
	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/netcluster/proto"
	"repro/internal/netcluster/wire"
	"repro/internal/obs"
	"repro/internal/optimal"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/units"
	"repro/internal/workload"
)

// The layer probes are fixed, seeded micro-worlds, one per layer, timed
// around the public call with fixed iteration counts. They bring under
// one schema what cmd/experiments' hotpath, desbench, netbench,
// farmbench, servebench, obsbench and optbench each pin on their own.

// probe times iters calls of op and returns the mean wall time in
// nanoseconds and the mean heap allocations per call.
func probe(iters int, op func() error) (ns, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return float64(elapsed.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n, nil
}

// runProbes runs every layer probe and stores its metrics.
func runProbes(r *runResult) error {
	for _, p := range []func(*runResult) error{
		probeMachine, probeEngine, probeScheduler, probeCore, probeWire, probeFarm, probeServe, probeOptimal,
	} {
		if err := p(r); err != nil {
			return err
		}
	}
	return nil
}

// quietConfig is the noise-free machine the DES fleet and the serving
// probe use.
func quietConfig(cpus int, seed int64) machine.Config {
	cfg := machine.P630Config()
	cfg.NumCPUs = cpus
	cfg.LatencyJitterSigma = 0
	cfg.MeterNoiseSigma = 0
	cfg.Contention = memhier.Contention{}
	cfg.ThrottleSettle = 0
	cfg.Seed = seed
	return cfg
}

// busyWorld is hotpath's world: a 4-CPU machine running two CPU-bound
// and two memory-bound endless programs under a warmed scheduler at
// 350 W.
func busyWorld(sink obs.Sink) (*machine.Machine, *fvsst.Scheduler, error) {
	m, err := machine.New(machine.P630Config())
	if err != nil {
		return nil, nil, err
	}
	mem := memhier.AccessRates{L2PerInstr: 0.030, L3PerInstr: 0.006, MemPerInstr: 0.0186}
	for cpu, rates := range []memhier.AccessRates{{}, mem, {}, mem} {
		alpha := 1.4
		if rates != (memhier.AccessRates{}) {
			alpha = 1.1
		}
		mix, err := workload.NewMix(workload.Program{Name: fmt.Sprint("p", cpu), Phases: []workload.Phase{{
			Name: "p", Alpha: alpha, Rates: rates, Instructions: 1e15,
		}}})
		if err != nil {
			return nil, nil, err
		}
		if err := m.SetMix(cpu, mix); err != nil {
			return nil, nil, err
		}
	}
	cfg := fvsst.DefaultConfig()
	cfg.Overhead = fvsst.Overhead{}
	s, err := fvsst.New(cfg, m, units.Watts(350))
	if err != nil {
		return nil, nil, err
	}
	s.SetDecisionLogging(false)
	s.SetSink(sink)
	for i := 0; i < 5*cfg.SchedulePeriods; i++ {
		m.Step()
		due, err := s.Collect()
		if err != nil {
			return nil, nil, err
		}
		if due {
			if _, err := s.Schedule("timer"); err != nil {
				return nil, nil, err
			}
		}
	}
	return m, s, nil
}

func probeMachine(r *runResult) error {
	m, _, err := busyWorld(nil)
	if err != nil {
		return err
	}
	ns, allocs, err := probe(100_000, m.StepQuantum)
	if err != nil {
		return err
	}
	r.set("machine.step_ns", ns)
	r.set("machine.step_allocs", allocs)

	// An idle halting machine, stepped quantum by quantum and then
	// fast-forwarded over the same kind of span.
	cfg := quietConfig(4, 1000)
	cfg.Idle = machine.IdleHalt
	idle, err := machine.New(cfg)
	if err != nil {
		return err
	}
	if ns, _, err = probe(100_000, idle.StepQuantum); err != nil {
		return err
	}
	r.set("machine.step_idle_quantum_ns", ns)
	const quanta = 10_000_000
	start, from := time.Now(), idle.Now()
	if err := idle.AdvanceTo(from + quanta*cfg.Quantum); err != nil {
		return err
	}
	r.set("machine.ff_idle_quantum_ns", float64(time.Since(start).Nanoseconds())/quanta)
	return nil
}

func probeEngine(r *runResult) error {
	// A recurring handler that reposts as it fires: the shape every
	// parked subsystem has.
	tl := engine.NewTimeline()
	var recur engine.HandlerFunc
	recur = func(now float64, tag uint64) error {
		_, err := tl.Post(now+0.01, recur, tag)
		return err
	}
	if _, err := tl.Post(0.01, recur, 0); err != nil {
		return err
	}
	step := func() error { return tl.AdvanceTo(tl.Now() + 0.01) }
	if _, _, err := probe(64, step); err != nil { // warm the free lists
		return err
	}
	ns, allocs, err := probe(1_000_000, step)
	if err != nil {
		return err
	}
	r.set("engine.dispatch_ns", ns)
	r.set("engine.dispatch_allocs", allocs)
	return nil
}

func probeScheduler(r *runResult) error {
	for _, c := range []struct {
		sink   obs.Sink
		ns, al string
	}{
		{nil, "fvsst.schedule_ns", "fvsst.schedule_allocs"},
		{obs.NewJSONLWriter(io.Discard), "obs.schedule_jsonl_ns", ""},
	} {
		_, s, err := busyWorld(c.sink)
		if err != nil {
			return err
		}
		ns, allocs, err := probe(20_000, func() error {
			_, err := s.Schedule("timer")
			return err
		})
		if err != nil {
			return err
		}
		r.set(c.ns, ns)
		if c.al != "" {
			r.set(c.al, allocs)
		}
	}
	return nil
}

// coreInputs makes n processors' counter windows at 1 GHz, fixed by the
// seed: mostly CPU-bound, so Step 1 asks for high frequencies and a tight
// budget leaves Step 2 thousands of demotions to choose.
func coreInputs(n int, seed int64) []cluster.ProcInput {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]cluster.ProcInput, n)
	for i := range inputs {
		const cycles = 100_000_000 // 0.1 s at 1 GHz
		instr := uint64(cycles * (0.3 + 1.1*rng.Float64()))
		memPerInstr := 0.002 * rng.Float64()
		inputs[i] = cluster.ProcInput{
			Proc: cluster.ProcRef{Node: i / 16, CPU: i % 16},
			Node: fmt.Sprint("n", i/16),
			Obs: &perfmodel.Observation{
				Freq: units.GHz(1),
				Delta: counters.Delta{
					Window: 0.1, Instructions: instr, Cycles: cycles,
					L2Refs:  uint64(float64(instr) * 0.01),
					L3Refs:  uint64(float64(instr) * 0.002),
					MemRefs: uint64(float64(instr) * memPerInstr),
				},
			},
		}
	}
	return inputs
}

func probeCore(r *runResult) error {
	core, err := cluster.NewCore(fvsst.DefaultConfig())
	if err != nil {
		return err
	}
	// 60 W per CPU of 140 W: a tight cap, so Step 2 has demotions to do.
	var us [2]float64
	for k, c := range []struct{ n, iters int }{{64, 400}, {2000, 12}} {
		inputs := coreInputs(c.n, 1)
		budget := units.Watts(60 * float64(c.n))
		ns, _, err := probe(c.iters, func() error {
			res, err := core.Schedule(inputs, budget)
			if err == nil && !res.BudgetMet {
				err = errors.New("probe pass missed its budget")
			}
			return err
		})
		if err != nil {
			return err
		}
		us[k] = ns / 1e3
	}
	r.set("cluster.core_schedule_us_64", us[0])
	r.set("cluster.core_schedule_us_2000", us[1])
	r.set("cluster.core_schedule_scaling", us[1]/us[0]/(2000.0/64))

	inputs := coreInputs(50, 2)
	ns, _, err := probe(400, func() error {
		_, err := core.DemandCurve(inputs)
		return err
	})
	if err != nil {
		return err
	}
	r.set("cluster.demand_curve_us_50", ns/1e3)
	return nil
}

// memEnd is an in-memory net.Conn half for the single-threaded codec
// probe: reads drain in, writes land in out.
type memEnd struct{ in, out *bytes.Buffer }

func (e *memEnd) Read(p []byte) (int, error)       { return e.in.Read(p) }
func (e *memEnd) Write(p []byte) (int, error)      { return e.out.Write(p) }
func (e *memEnd) Close() error                     { return nil }
func (e *memEnd) LocalAddr() net.Addr              { return memAddr{} }
func (e *memEnd) RemoteAddr() net.Addr             { return memAddr{} }
func (e *memEnd) SetDeadline(time.Time) error      { return nil }
func (e *memEnd) SetReadDeadline(time.Time) error  { return nil }
func (e *memEnd) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

func probeWire(r *runResult) error {
	// One counter poll round trip (request out, 8-CPU report back): the
	// message flow the poll phase repeats per node per round.
	for _, codec := range []string{"bin1", "json"} {
		toAgent, toCoord := &bytes.Buffer{}, &bytes.Buffer{}
		coord := wire.NewConn(&memEnd{in: toCoord, out: toAgent}, wire.Options{})
		agent := wire.NewConn(&memEnd{in: toAgent, out: toCoord}, wire.Options{Mirror: true})
		coord.SetBinary(codec == "bin1")
		rep := &proto.CounterReport{CPUs: make([]proto.CPUReport, 8), CPUPowerW: 412.75}
		for i := range rep.CPUs {
			rep.CPUs[i] = proto.CPUReport{
				WindowSec: 0.08, Instructions: 2_400_000_000 + uint64(i), Cycles: 3_100_000_000 + uint64(i),
				HaltedCycles: 500_000_000, L2Refs: 40_000_000, L3Refs: 9_000_000, MemRefs: 2_000_000,
			}
		}
		req := &proto.Message{Kind: proto.KindCounterRequest, ID: 1, Trace: &proto.TraceContext{PassID: 1},
			CounterRequest: &proto.CounterRequest{AdvanceQuanta: 10, WindowQuanta: 10}}
		reply := &proto.Message{Kind: proto.KindCounterReport, ID: 1, CounterReport: rep}
		var reportBytes int
		cycle := func() error {
			toAgent.Reset()
			toCoord.Reset()
			if err := coord.Send(req); err != nil {
				return err
			}
			if _, err := agent.Recv(); err != nil {
				return err
			}
			if err := agent.Send(reply); err != nil {
				return err
			}
			reportBytes = toCoord.Len()
			_, err := coord.Recv()
			return err
		}
		if _, _, err := probe(16, cycle); err != nil { // warm buffers and delta state
			return err
		}
		ns, allocs, err := probe(10_000, cycle)
		if err != nil {
			return err
		}
		r.set("wire.poll_cycle_ns_"+codec, ns)
		r.set("wire.report_bytes_"+codec, float64(reportBytes))
		if codec == "bin1" {
			r.set("wire.poll_cycle_allocs_bin1", allocs)
		}
	}
	return nil
}

func probeFarm(r *runResult) error {
	// farmbench's world: 12 clusters with 16-point convex demand curves
	// under a 12 kW source.
	const n = 12
	members := make([]farm.Member, n)
	demands := make([]farm.Demand, n)
	for i := range members {
		members[i] = farm.Member{Name: fmt.Sprint("c", i), Floor: units.Watts(144)}
		pts := make([]farm.DemandPoint, 16)
		for s := range pts {
			pts[s] = farm.DemandPoint{
				Power: units.Watts(2240 - float64(s)*(2240.0-144.0)/15),
				Loss:  float64(s) * (0.02 + 0.001*float64(i)),
			}
		}
		demands[i] = farm.Demand{Curve: farm.DemandCurve{Points: pts}, Reachable: true}
	}
	a, err := farm.NewAllocator(farm.AllocatorConfig{
		Source: farm.Static(units.Watts(12000)), Members: members, Periods: 10, LeaseTTL: 0.3, Safety: 0.06,
	})
	if err != nil {
		return err
	}
	at := 0.0
	ns, allocs, err := probe(20_000, func() error {
		at += 0.1
		_, err := a.Allocate(at, "timer", demands)
		return err
	})
	if err != nil {
		return err
	}
	r.set("farm.allocate_ns_12", ns)
	r.set("farm.allocate_allocs_12", allocs)

	// The root's division at tree-1k's shape: 20 relays' curves of 50
	// processors each, 40 W per CPU.
	fcfg := fvsst.DefaultConfig()
	core, err := cluster.NewCore(fcfg)
	if err != nil {
		return err
	}
	curves := make([]farm.DemandCurve, 20)
	desired := make([][]int, 20)
	for j := range curves {
		if curves[j], desired[j], err = core.DemandCurveDesired(coreInputs(50, int64(10+j))); err != nil {
			return err
		}
	}
	ns, _, err = probe(40, func() error {
		_, met, err := farm.DivideLeastLossExact(curves, desired, fcfg.Table, units.Watts(40*1000))
		if err == nil && !met {
			err = errors.New("probe division missed its budget")
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("farm.divide_us_20x50", ns/1e3)
	return nil
}

func probeServe(r *runResult) error {
	// servebench's world: a 2-CPU station with a latency class and an
	// admission-limited batch class fed by four gamma streams.
	m, err := machine.New(quietConfig(2, 21))
	if err != nil {
		return err
	}
	st, err := serve.NewStation(m, serve.Config{
		Classes: []serve.Class{
			{Name: "web", Phase: serve.PhaseProfile(1.3, 0.002), MeanInstr: 2e6, SizeCV: 1,
				SLO: 0.060, Timeout: 0.5, Priority: 1, QueueCap: 512},
			{Name: "batch", Phase: serve.PhaseProfile(1.1, 0.004), MeanInstr: 8e6, SizeCV: 1,
				SLO: 0.400, QueueCap: 512, AdmitRate: 200, AdmitBurst: 50},
		},
		Clients: 4,
		Seed:    38,
	})
	if err != nil {
		return err
	}
	feeder := &serve.Feeder{}
	for cl := 0; cl < 4; cl++ {
		spec, err := serve.ParseArrivalSpec("gamma:120,cv=1.5")
		if err != nil {
			return err
		}
		stm, err := spec.NewStream(300 + int64(cl))
		if err != nil {
			return err
		}
		feeder.Add(cl%2, cl, stm)
	}
	quantum := func() error {
		feeder.DeliverUpTo(m.Now(), st)
		st.BeforeQuantum(m.Now())
		err := m.StepQuantum()
		st.AfterQuantum(m.Now())
		return err
	}
	if _, _, err := probe(200, quantum); err != nil { // reach steady state
		return err
	}
	ns, allocs, err := probe(100_000, quantum)
	if err != nil {
		return err
	}
	r.set("serve.quantum_ns", ns)
	r.set("serve.quantum_allocs", allocs)

	// Offers in bursts of 256, the queue drained (untimed) between them.
	var offerNs float64
	const bursts = 40
	for b := 0; b < bursts; b++ {
		now := m.Now()
		ns, _, _ := probe(256, func() error { st.Offer(now, 0, 0); return nil })
		offerNs += ns
		for st.QueueLen(0) > 0 {
			if err := quantum(); err != nil {
				return err
			}
		}
	}
	r.set("serve.offer_ns", offerNs/bursts)

	ns, _, _ = probe(2_000, func() error { st.Scoreboard().Summarize(m.Now()); return nil })
	r.set("serve.summarize_us", ns/1e3)
	if st.Scoreboard().Summarize(m.Now()).Classes[0].Completed == 0 {
		return errors.New("serve probe served nothing")
	}
	return nil
}

func probeOptimal(r *runResult) error {
	// 16 CPUs on the 16-point table at 60% of maximum power.
	table := power.PaperTable1()
	nf := table.Len()
	p := optimal.Problem{
		Table:  table,
		Budget: units.Watts(16 * table.PowerAtIndex(nf-1).W() * 0.6),
		Upper:  make([]int, 16),
		Loss: func(cpu, fi int) float64 {
			return (0.04 + 0.012*float64((cpu*7)%5)) * float64(nf-1-fi) / float64(nf-1)
		},
	}
	for i := range p.Upper {
		p.Upper[i] = nf - 1
	}
	ns, _, err := probe(10, func() error {
		a, err := optimal.Solve(p)
		if err == nil && !a.Feasible {
			err = errors.New("optimal probe infeasible")
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("optimal.dp_us_16x16", ns/1e3)
	ns, _, err = probe(20_000, func() error {
		if !optimal.Greedy(p).Feasible {
			return errors.New("greedy probe infeasible")
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("optimal.greedy_ns_16x16", ns)
	return nil
}
