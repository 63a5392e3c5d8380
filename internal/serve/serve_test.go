package serve

import (
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/obs"
)

// quietMachine is a deterministic (noise-free) p630 for serving tests.
func quietMachine(t *testing.T, cpus int) *machine.Machine {
	t.Helper()
	cfg := machine.P630Config()
	cfg.NumCPUs = cpus
	cfg.LatencyJitterSigma = 0
	cfg.Contention = memhier.Contention{}
	cfg.ThrottleSettle = 0
	cfg.Seed = 11
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func webClass() Class {
	return Class{
		Name:      "web",
		Phase:     PhaseProfile(1.3, 0.002),
		MeanInstr: 2e6,
		SLO:       0.060,
		Timeout:   0.5,
		Priority:  1,
		QueueCap:  256,
	}
}

func batchClass() Class {
	return Class{
		Name:      "batch",
		Phase:     PhaseProfile(1.1, 0.004),
		MeanInstr: 8e6,
		SizeCV:    1,
		SLO:       0.400,
		QueueCap:  128,
	}
}

// checkConservation asserts the queue-conservation identities.
func checkConservation(t *testing.T, st *Station, at float64) {
	t.Helper()
	a := st.Account()
	v := invariant.CheckQueueConservation(invariant.QueueLedger{
		At: at, Offered: a.Offered, Admitted: a.Admitted, Rejected: a.Rejected,
		Dropped: a.Dropped, Completed: a.Completed, TimedOut: a.TimedOut,
		Queued: a.Queued, InService: a.InService,
	})
	for _, x := range v {
		t.Error(x)
	}
}

// TestStationServesAndScores drives a two-class station open-loop and
// checks completions, latency scoring and conservation every quantum.
func TestStationServesAndScores(t *testing.T) {
	m := quietMachine(t, 2)
	st, err := NewStation(m, Config{Classes: []Class{webClass(), batchClass()}, Clients: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseArrivalSpec("poisson:120")
	if err != nil {
		t.Fatal(err)
	}
	var feeder Feeder
	for cl := 0; cl < 3; cl++ {
		stm, err := spec.NewStream(100 + int64(cl))
		if err != nil {
			t.Fatal(err)
		}
		feeder.Add(cl%2, cl, stm)
	}
	for q := 0; q < 300; q++ {
		now := m.Now()
		feeder.DeliverUpTo(now, st)
		st.BeforeQuantum(now)
		m.Step()
		st.AfterQuantum(m.Now())
		checkConservation(t, st, m.Now())
	}
	s := st.Scoreboard().Summarize(m.Now())
	if len(s.Classes) != 2 {
		t.Fatalf("classes = %d", len(s.Classes))
	}
	web := s.Classes[0]
	if web.Completed == 0 {
		t.Fatal("no web completions")
	}
	if web.P50S <= 0 || web.P99S < web.P95S || web.P95S < web.P50S {
		t.Errorf("latency percentiles not ordered: %+v", web)
	}
	if s.Jain <= 0 || s.Jain > 1 {
		t.Errorf("jain = %v", s.Jain)
	}
	if !strings.Contains(s.Render(), "web") {
		t.Error("render missing class row")
	}
	// At nominal frequency with modest load the web SLO should be met
	// nearly always.
	if web.Attainment < 0.95 {
		t.Errorf("web attainment = %v at nominal frequency", web.Attainment)
	}
}

// TestStationDeterministic: same seeds → byte-identical summaries.
func TestStationDeterministic(t *testing.T) {
	run := func() string {
		m := quietMachine(t, 2)
		st, err := NewStation(m, Config{Classes: []Class{webClass(), batchClass()}, Clients: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := ParseArrivalSpec("gamma:90,cv=2,depth=0.8,period=1.5")
		var feeder Feeder
		for cl := 0; cl < 2; cl++ {
			stm, err := spec.NewStream(200 + int64(cl))
			if err != nil {
				t.Fatal(err)
			}
			feeder.Add(cl, cl, stm)
		}
		for q := 0; q < 200; q++ {
			feeder.DeliverUpTo(m.Now(), st)
			st.BeforeQuantum(m.Now())
			m.Step()
			st.AfterQuantum(m.Now())
		}
		return st.Scoreboard().Summarize(m.Now()).Render()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("summaries differ:\n%s\n---\n%s", a, b)
	}
}

// TestStationPriorityAndDrops: a saturated station serves the
// high-priority class preferentially and drops on the bounded queue.
func TestStationPriorityAndDrops(t *testing.T) {
	m := quietMachine(t, 1)
	hi := webClass()
	hi.QueueCap = 4
	hi.Timeout = 0
	lo := batchClass()
	lo.QueueCap = 4
	lo.MeanInstr = 50e6 // each batch request hogs the CPU
	lo.SizeCV = 0
	st, err := NewStation(m, Config{Classes: []Class{hi, lo}, Clients: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Flood both queues far beyond capacity at t=0.
	for i := 0; i < 20; i++ {
		st.Offer(0, 0, 0)
		st.Offer(0, 1, 1)
	}
	a := st.Account()
	if a.Dropped != 2*20-2*4 {
		t.Errorf("dropped = %d, want %d", a.Dropped, 2*20-2*4)
	}
	checkConservation(t, st, 0)
	for q := 0; q < 30; q++ {
		st.BeforeQuantum(m.Now())
		m.Step()
		st.AfterQuantum(m.Now())
		checkConservation(t, st, m.Now())
	}
	s := st.Scoreboard().Summarize(m.Now())
	// All four queued web requests must finish before the four big batch
	// ones on the single CPU.
	if s.Classes[0].Completed != 4 {
		t.Errorf("web completed = %d, want all 4 queued", s.Classes[0].Completed)
	}
	if s.Classes[1].Completed == 4 {
		t.Errorf("batch finished everything despite low priority")
	}
}

// TestStationAdmissionAndTimeout: token-bucket rejections and queue-wait
// timeouts are counted and conserve.
func TestStationAdmissionAndTimeout(t *testing.T) {
	m := quietMachine(t, 1)
	c := webClass()
	c.AdmitRate = 10
	c.AdmitBurst = 2
	c.Timeout = 0.05
	c.MeanInstr = 40e6 // service slow enough that waiters expire
	big := batchClass()
	big.Priority = 2 // keep the CPU busy with batch work
	big.MeanInstr = 100e6
	big.SizeCV = 0
	st, err := NewStation(m, Config{Classes: []Class{c, big}, Clients: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st.Offer(0, 1, 0) // occupy the CPU
	for i := 0; i < 6; i++ {
		st.Offer(0, 0, 0) // burst 2 admitted, rest rejected
	}
	a := st.Account()
	if a.Rejected == 0 {
		t.Fatal("token bucket never rejected")
	}
	for q := 0; q < 40; q++ {
		st.BeforeQuantum(m.Now())
		m.Step()
		st.AfterQuantum(m.Now())
		checkConservation(t, st, m.Now())
	}
	a = st.Account()
	if a.TimedOut == 0 {
		t.Error("no queue-wait timeouts despite 50 ms bound")
	}
}

// TestStationEmitsServeEvents: the obs sink receives cumulative per-class
// events that a Ledger folds into the serving section.
func TestStationEmitsServeEvents(t *testing.T) {
	m := quietMachine(t, 2)
	led := obs.NewLedger()
	st, err := NewStation(m, Config{
		Classes: []Class{webClass()}, Clients: 1, Seed: 3,
		Node: "n0", sink: led, EmitEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := ParseArrivalSpec("poisson:200")
	stm, err := spec.NewStream(7)
	if err != nil {
		t.Fatal(err)
	}
	var feeder Feeder
	feeder.Add(0, 0, stm)
	for q := 0; q < 100; q++ {
		feeder.DeliverUpTo(m.Now(), st)
		st.BeforeQuantum(m.Now())
		m.Step()
		st.AfterQuantum(m.Now())
	}
	sum := led.Summary()
	if len(sum.Serving) != 1 || sum.Serving[0].Class != "web" {
		t.Fatalf("serving summary = %+v", sum.Serving)
	}
	if sum.Serving[0].Completed == 0 || sum.Serving[0].Attainment == 0 {
		t.Errorf("serving row empty: %+v", sum.Serving[0])
	}
}

// TestStationValidation covers constructor error paths.
func TestStationValidation(t *testing.T) {
	m := quietMachine(t, 1)
	if _, err := NewStation(nil, Config{Classes: []Class{webClass()}, Clients: 1}); err == nil {
		t.Error("nil machine accepted")
	}
	if _, err := NewStation(m, Config{Clients: 1}); err == nil {
		t.Error("no classes accepted")
	}
	if _, err := NewStation(m, Config{Classes: []Class{webClass()}}); err == nil {
		t.Error("zero clients accepted")
	}
	dup := []Class{webClass(), webClass()}
	if _, err := NewStation(m, Config{Classes: dup, Clients: 1}); err == nil {
		t.Error("duplicate class names accepted")
	}
	bad := webClass()
	bad.SLO = 0
	if _, err := NewStation(m, Config{Classes: []Class{bad}, Clients: 1}); err == nil {
		t.Error("zero SLO accepted")
	}
}
