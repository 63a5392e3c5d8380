package machine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/workload"
)

func reqJob(instr uint64) workload.Program {
	return workload.Program{
		Name:   "req",
		Phases: []workload.Phase{{Name: "serve", Alpha: 1.2, Instructions: instr}},
	}
}

func TestSubmitDeliversArrivalsOnTime(t *testing.T) {
	m := newQuiet(t)
	sched := workload.Schedule{
		{At: 0.05, CPU: 0, Program: reqJob(1e8)}, // ≈80 ms of work each
		{At: 0.15, CPU: 0, Program: reqJob(1e8)},
		{At: 0.10, CPU: 1, Program: reqJob(1e8)},
	}
	if err := m.Submit(sched); err != nil {
		t.Fatal(err)
	}
	if m.PendingArrivals() != 3 {
		t.Fatalf("pending = %d", m.PendingArrivals())
	}
	if m.AllJobsDone() {
		t.Error("machine with pending arrivals reported done")
	}
	// Before the first arrival: CPU 0 idle.
	runUntil(m, 0.04)
	if !m.IsIdle(0) {
		t.Error("cpu0 busy before its arrival")
	}
	runUntil(m, 0.06)
	if m.IsIdle(0) {
		t.Error("cpu0 idle after its arrival")
	}
	// Run everything out.
	if done, err := m.RunUntilAllDone(2.0); err != nil || !done {
		t.Fatalf("jobs did not finish: %v", err)
	}
	comps := m.Completions()
	if len(comps) != 3 {
		t.Fatalf("completions = %d", len(comps))
	}
	// Causality per CPU: by any time t, completions cannot outnumber
	// arrivals.
	for _, c := range comps {
		arrived, completed := 0, 0
		for _, a := range sched {
			if a.CPU == c.CPU && a.At <= c.At {
				arrived++
			}
		}
		for _, c2 := range comps {
			if c2.CPU == c.CPU && c2.At <= c.At {
				completed++
			}
		}
		if completed > arrived {
			t.Errorf("cpu %d: %d completions by %v but only %d arrivals", c.CPU, completed, c.At, arrived)
		}
	}
}

func TestSubmitIntoRunningMix(t *testing.T) {
	m := newQuiet(t)
	mix, err := workload.NewMix(reqJob(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMix(0, mix); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(workload.Schedule{{At: 0.02, CPU: 0, Program: reqJob(1e6)}}); err != nil {
		t.Fatal(err)
	}
	runUntil(m, 0.5)
	if len(mix.Jobs()) != 2 {
		t.Errorf("mix jobs = %d, want 2 after arrival", len(mix.Jobs()))
	}
	// The short arrival completes while the long original keeps running.
	done := 0
	for _, c := range m.Completions() {
		if c.Program == "req" {
			done++
		}
	}
	if done != 1 {
		t.Errorf("completions = %d, want the short job done", done)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newQuiet(t)
	if err := m.Submit(workload.Schedule{{At: 0.1, CPU: 99, Program: reqJob(1)}}); err == nil {
		t.Error("out-of-range CPU accepted")
	}
	if err := m.Submit(workload.Schedule{{At: -1, CPU: 0, Program: reqJob(1)}}); err == nil {
		t.Error("negative arrival time accepted")
	}
	if m.PendingArrivals() != 0 {
		t.Error("rejected arrivals were queued")
	}
}

// TestSubmitOrdersArrivalsStably: Submit keeps the pending arrivals sorted
// by time across calls, equal times in submission order, and leaves the
// caller's schedule as it was.
func TestSubmitOrdersArrivalsStably(t *testing.T) {
	m := newQuiet(t)
	named := func(name string) workload.Program {
		p := reqJob(1e9)
		p.Name = name
		return p
	}
	first := workload.Schedule{
		{At: 0.2, CPU: 0, Program: named("c")},
		{At: 0.1, CPU: 0, Program: named("a")},
		{At: 0.1, CPU: 0, Program: named("b")},
	}
	if err := m.Submit(first); err != nil {
		t.Fatal(err)
	}
	second := workload.Schedule{
		{At: 0.1, CPU: 0, Program: named("d")},
		{At: 0.05, CPU: 0, Program: named("z")},
	}
	if err := m.Submit(second); err != nil {
		t.Fatal(err)
	}
	if first[0].Program.Name != "c" || first[1].Program.Name != "a" || second[0].Program.Name != "d" {
		t.Error("Submit reordered the caller's schedule")
	}
	names := func() string {
		var out []string
		for _, a := range m.arrivals {
			out = append(out, a.Program.Name)
		}
		return fmt.Sprint(out)
	}
	if got := names(); got != "[z a b d c]" {
		t.Errorf("pending order %s, want [z a b d c]", got)
	}
	// Admitting z leaves the rest in order; a third Submit lands among them.
	if err := runUntil(m, 0.06); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(workload.Schedule{{At: 0.15, CPU: 0, Program: named("e")}, {At: 0.1, CPU: 0, Program: named("f")}}); err != nil {
		t.Fatal(err)
	}
	if got := names(); got != "[a b d f e c]" {
		t.Errorf("pending order %s, want [a b d f e c]", got)
	}
	// Enough ties that an unstable sort would reorder them, on CPU 1 and
	// after the run below.
	var many workload.Schedule
	for k := 0; k < 40; k++ {
		many = append(many, workload.Arrival{At: float64(3 - k%2), CPU: 1, Program: named(fmt.Sprint(k))})
	}
	if err := m.Submit(many); err != nil {
		t.Fatal(err)
	}
	for k, a := range m.arrivals[6:] {
		want := 2*k + 1 // the twenty at t = 2, then the twenty at t = 3
		if k >= 20 {
			want = 2 * (k - 20)
		}
		if a.Program.Name != fmt.Sprint(want) {
			t.Fatalf("pending arrival %d is %s, want %d", 6+k, a.Program.Name, want)
		}
	}
	if err := runUntil(m, 0.25); err != nil {
		t.Fatal(err)
	}
	// Each job runs about a second, so all seven are still in the
	// rotation, in the order they were admitted.
	var got []string
	for _, j := range m.Mix(0).Jobs() {
		got = append(got, j.Program().Name)
	}
	if want := []string{"z", "a", "b", "d", "f", "e", "c"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("admission order %v, want %v", got, want)
	}
}

func TestPastArrivalAdmittedImmediately(t *testing.T) {
	m := newQuiet(t)
	runUntil(m, 0.2)
	if err := m.Submit(workload.Schedule{{At: 0.05, CPU: 2, Program: reqJob(1e6)}}); err != nil {
		t.Fatal(err)
	}
	m.Step()
	if m.IsIdle(2) && m.PendingArrivals() > 0 {
		t.Error("past-dated arrival not admitted at next step")
	}
}

// burstMachine is a quiet machine with n one-quantum bursts submitted to
// CPU 0, one arriving mid-way through each quantum from the first, each
// finishing inside the quantum that admits it. Completions go to a hook
// that counts them, so the log does not grow.
func burstMachine(t *testing.T, n int) (*Machine, *int) {
	t.Helper()
	m := newQuiet(t)
	completed := 0
	m.SetCompletionHook(func(JobCompletion) { completed++ })
	q := m.Config().Quantum
	sched := make(workload.Schedule, n)
	for i := range sched {
		sched[i] = workload.Arrival{At: (float64(i) + 0.5) * q, CPU: 0, Program: reqJob(1e6)}
	}
	if err := m.Submit(sched); err != nil {
		t.Fatal(err)
	}
	return m, &completed
}

// TestAdmitArrivalsZeroAlloc pins burst admission: once warm, a quantum
// that admits a one-quantum burst onto a CPU whose last job finished
// allocates nothing — the finished job's cursor is rebound to the new one.
func TestAdmitArrivalsZeroAlloc(t *testing.T) {
	const warm, runs = 50, 200
	m, completed := burstMachine(t, warm+runs+10)
	if err := runQuanta(m, warm); err != nil {
		t.Fatal(err)
	}
	pending, before := m.PendingArrivals(), *completed
	allocs := testing.AllocsPerRun(runs, func() {
		if err := m.StepQuantum(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a quantum admitting a burst allocates %v, want 0", allocs)
	}
	// AllocsPerRun makes one extra warm-up call.
	if got := pending - m.PendingArrivals(); got != runs+1 {
		t.Fatalf("%d bursts admitted over %d quanta, want one a quantum", got, runs+1)
	}
	if got := *completed - before; got != runs+1 {
		t.Fatalf("%d bursts completed over %d quanta, want one a quantum", got, runs+1)
	}
}

// TestAdmitArrivalsBoundsMix: a CPU's mix holds its live jobs, not every
// job it ever admitted.
func TestAdmitArrivalsBoundsMix(t *testing.T) {
	const bursts = 1000
	m, completed := burstMachine(t, bursts)
	if err := runQuanta(m, bursts+1); err != nil {
		t.Fatal(err)
	}
	if *completed != bursts || m.PendingArrivals() != 0 {
		t.Fatalf("%d of %d bursts completed, %d pending", *completed, bursts, m.PendingArrivals())
	}
	if n := len(m.Mix(0).Jobs()); n > 2 {
		t.Fatalf("mix holds %d jobs after %d bursts, want ≤ 2", n, bursts)
	}
}

// TestAdmitInvalidArrivalIsStepError plants arrivals that bypassed
// Submit's validation: admitting one onto an idle CPU (a new mix) or a
// busy one (Mix.Add) is a *StepError, not a panic.
func TestAdmitInvalidArrivalIsStepError(t *testing.T) {
	for _, cpu := range []int{0, 1} {
		m := newQuiet(t)
		mix, err := workload.NewMix(reqJob(1e9))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMix(1, mix); err != nil {
			t.Fatal(err)
		}
		m.arrivals = workload.Schedule{{At: 0, CPU: cpu, Program: workload.Program{Name: "bad"}}}
		err = m.StepQuantum()
		var se *StepError
		if !errors.As(err, &se) || se.Op != "admit" {
			t.Fatalf("cpu %d: StepQuantum = %v, want *StepError with Op \"admit\"", cpu, err)
		}
	}
}
