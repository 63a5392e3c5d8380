package serve

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/memhier"
)

// benchWorld builds a steadily loaded two-class station: Poisson traffic
// at ~60% utilisation of a 2-CPU machine, pre-run until warm.
func benchWorld(tb testing.TB) (*machine.Machine, *Station, *Feeder) {
	cfg := machine.P630Config()
	cfg.NumCPUs = 2
	cfg.LatencyJitterSigma = 0
	cfg.MeterNoiseSigma = 0
	cfg.Contention = memhier.Contention{}
	cfg.ThrottleSettle = 0
	cfg.Seed = 21
	m, err := machine.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := NewStation(m, Config{
		Classes: []Class{
			{Name: "web", Phase: PhaseProfile(1.3, 0.002), MeanInstr: 2e6, SizeCV: 1, SLO: 0.060, Timeout: 0.5, Priority: 1, QueueCap: 512},
			{Name: "batch", Phase: PhaseProfile(1.1, 0.004), MeanInstr: 8e6, SizeCV: 1, SLO: 0.400, QueueCap: 512, AdmitRate: 200, AdmitBurst: 50},
		},
		Clients: 4,
		Seed:    38,
	})
	if err != nil {
		tb.Fatal(err)
	}
	feeder := &Feeder{}
	for cl := 0; cl < 4; cl++ {
		spec, err := ParseArrivalSpec("gamma:120,cv=1.5")
		if err != nil {
			tb.Fatal(err)
		}
		stm, err := spec.NewStream(300 + int64(cl))
		if err != nil {
			tb.Fatal(err)
		}
		feeder.Add(cl%2, cl, stm)
	}
	// Warm up: fill queues, histograms and rings to steady state.
	for q := 0; q < 200; q++ {
		feeder.DeliverUpTo(m.Now(), st)
		st.BeforeQuantum(m.Now())
		m.Step()
		st.AfterQuantum(m.Now())
	}
	return m, st, feeder
}

// serveQuantum is one steady-state iteration: deliver matured arrivals,
// start idle CPUs, run the machine one quantum, expire timeouts. This is
// the entire per-request hot path (admission, queueing, dispatch via the
// completion hook, latency scoring).
func serveQuantum(m *machine.Machine, st *Station, feeder *Feeder) {
	feeder.DeliverUpTo(m.Now(), st)
	st.BeforeQuantum(m.Now())
	m.Step()
	st.AfterQuantum(m.Now())
}

// TestServeSteadyStateZeroAlloc pins the contract: the steady-state
// serving path allocates nothing. bench/ trends the same quantum as
// serve.quantum_ns and serve.quantum_allocs.
func TestServeSteadyStateZeroAlloc(t *testing.T) {
	m, st, feeder := benchWorld(t)
	allocs := testing.AllocsPerRun(500, func() {
		serveQuantum(m, st, feeder)
	})
	if allocs != 0 {
		t.Errorf("steady-state serve quantum allocates %v allocs/op, want 0", allocs)
	}
	if st.Scoreboard().Summarize(m.Now()).Classes[0].Completed == 0 {
		t.Fatal("benchmark world served nothing — hot path not exercised")
	}
}

// BenchmarkServeQuantum measures the steady-state serving quantum.
func BenchmarkServeQuantum(b *testing.B) {
	m, st, feeder := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveQuantum(m, st, feeder)
	}
}

// offerLoop returns one admission iteration (token bucket + size draw +
// queue push) for a web request. Once 256 are queued it serves the queue
// dry between pause and resume, so every Offer is admitted rather than
// shed and a benchmark can keep the drain untimed.
func offerLoop(m *machine.Machine, st *Station, pause, resume func()) func() Outcome {
	now := m.Now()
	return func() Outcome {
		out := st.Offer(now, 0, 0)
		if st.QueueLen(0) >= 256 {
			pause()
			for st.QueueLen(0) > 0 {
				st.BeforeQuantum(m.Now())
				m.Step()
				st.AfterQuantum(m.Now())
			}
			now = m.Now()
			resume()
		}
		return out
	}
}

// TestOfferZeroAlloc pins the admission path at 0 allocs/op; bench/
// trends its cost as serve.offer_ns. The queue drains inside the measured
// body, which TestServeSteadyStateZeroAlloc already holds at zero.
func TestOfferZeroAlloc(t *testing.T) {
	m, st, _ := benchWorld(t)
	offer := offerLoop(m, st, func() {}, func() {})
	allocs := testing.AllocsPerRun(2000, func() {
		if out := offer(); out != Admitted {
			t.Fatalf("Offer = %v, want Admitted — admission path not exercised", out)
		}
	})
	if allocs != 0 {
		t.Errorf("Offer allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkOffer measures pure admission by refilling a drained queue
// each batch.
func BenchmarkOffer(b *testing.B) {
	m, st, _ := benchWorld(b)
	offer := offerLoop(m, st, b.StopTimer, b.StartTimer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer()
	}
}
