package machine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

// ffFingerprint renders every observable the DES fast path must preserve,
// with %v so any bit-level float divergence shows; the three accumulators
// the replay computes in closed form are rendered as raw bits as well.
func ffFingerprint(m *Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v e=%v ce=%v pend=%d\n", m.Now(), m.Energy(), m.CPUEnergy(), m.PendingArrivals())
	fmt.Fprintf(&b, "bits t=%#x e=%#x ce=%#x\n",
		math.Float64bits(m.Now()), math.Float64bits(m.Energy().J()), math.Float64bits(m.CPUEnergy().J()))
	for i := 0; i < m.NumCPUs(); i++ {
		s, err := m.ReadCounters(i)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "cpu%d %+v last=%+v f=%v idle=%v\n",
			i, s, m.LastQuantum(i), m.EffectiveFrequency(i), m.IsIdle(i))
	}
	for _, c := range m.Completions() {
		fmt.Fprintf(&b, "done %d %s %v\n", c.CPU, c.Program, c.At)
	}
	return b.String()
}

// diffAdvance drives two identically configured machines — one with the
// stepped reference (runUntil), one with AdvanceTo — applying the
// same mutations at every checkpoint, and requires byte-identical
// fingerprints throughout.
func diffAdvance(t *testing.T, cfg Config, checkpoints []float64, apply func(m *Machine, ck float64)) {
	t.Helper()
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	des, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if apply != nil {
		apply(ref, 0)
		apply(des, 0)
	}
	for _, ck := range checkpoints {
		runUntil(ref, ck)
		if err := des.AdvanceTo(ck); err != nil {
			t.Fatalf("AdvanceTo(%v): %v", ck, err)
		}
		want, got := ffFingerprint(ref), ffFingerprint(des)
		if got != want {
			t.Fatalf("diverged at checkpoint t=%v:\n--- stepped ---\n%s--- advanced ---\n%s", ck, want, got)
		}
		if apply != nil {
			apply(ref, ck)
			apply(des, ck)
		}
	}
}

// burst returns n small jobs arriving together at time at, round-robin over
// the first three CPUs.
func burst(at float64, n int) workload.Schedule {
	var s workload.Schedule
	for i := 0; i < n; i++ {
		s = append(s, workload.Arrival{At: at, CPU: i % 3, Program: workload.Gzip(0.002)})
	}
	return s
}

func submitBursts(t *testing.T) func(m *Machine, ck float64) {
	return func(m *Machine, ck float64) {
		if ck != 0 {
			return
		}
		if err := m.Submit(burst(0.48, 3)); err != nil {
			t.Fatal(err)
		}
		if err := m.Submit(burst(3.013, 2)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAdvanceToMatchesStepIdleHalt(t *testing.T) {
	cfg := quietConfig()
	cfg.Idle = IdleHalt
	// The last checkpoint is one full simulated hour: a single replay of
	// some 357 000 quanta across every binade between 30 s and 3600 s.
	diffAdvance(t, cfg, []float64{0.25, 1.0, 2.0, 5.0, 12.0, 30.0, 3600.0}, submitBursts(t))
}

func TestAdvanceToMatchesStepIdleHot(t *testing.T) {
	// Hot idle retires instructions every quantum, so the replay path must
	// track the idle cursor across spans long enough to wrap its spin
	// phase (~82 quanta per wrap at nominal frequency) — some 4 400 spans
	// over the closing hour, each starting mid-binade.
	diffAdvance(t, quietConfig(), []float64{0.25, 1.0, 2.0, 5.0, 12.0, 60.0, 3600.0}, submitBursts(t))
}

func TestAdvanceToMatchesStepFullNoise(t *testing.T) {
	// The paper-default config draws jitter RNG every busy quantum, so
	// probe-and-replay must refuse to certify spans and fall back to
	// stepping — still byte-identical, just not fast.
	diffAdvance(t, P630Config(), []float64{0.25, 1.0, 3.0, 5.0}, submitBursts(t))
}

func TestAdvanceToMatchesStepWithActuation(t *testing.T) {
	cfg := quietConfig()
	cfg.ThrottleSettle = 0.0005 // exercise the Settling eligibility gate
	freqs := cfg.Table.Frequencies()
	apply := func(m *Machine, ck float64) {
		switch ck {
		case 0:
			if err := m.Submit(burst(0.48, 3)); err != nil {
				t.Fatal(err)
			}
		case 1.0:
			for i := 0; i < m.NumCPUs(); i++ {
				if err := m.SetFrequency(i, freqs[0]); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.StealTime(0, 0.0031); err != nil {
				t.Fatal(err)
			}
		case 5.0:
			if err := m.SetFrequency(1, freqs[len(freqs)-1]); err != nil {
				t.Fatal(err)
			}
			if err := m.SetFrequency(2, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	diffAdvance(t, cfg, []float64{0.25, 1.0, 2.0, 5.0, 9.0, 20.0}, apply)
}

func TestFastForwardCallbackMatchesStep(t *testing.T) {
	// With a per-quantum callback the fast path must fire it every
	// quantum, fully advanced — the contract a window sampler relies on.
	cfg := quietConfig()
	mkMachine := func() *Machine {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Submit(burst(1.507, 2)); err != nil {
			t.Fatal(err)
		}
		return m
	}
	collect := func(m *Machine, out *[]string) func() error {
		return func() error {
			s, err := m.ReadCounters(0)
			if err != nil {
				return err
			}
			*out = append(*out, fmt.Sprintf("%v %+v %+v", m.Now(), s, m.LastQuantum(0)))
			return nil
		}
	}
	const n = 400
	ref := mkMachine()
	var refSeq []string
	refAfter := collect(ref, &refSeq)
	for i := 0; i < n; i++ {
		ref.Step()
		if err := refAfter(); err != nil {
			t.Fatal(err)
		}
	}
	des := mkMachine()
	var desSeq []string
	if err := des.FastForwardQuanta(n, collect(des, &desSeq)); err != nil {
		t.Fatal(err)
	}
	if len(desSeq) != n {
		t.Fatalf("callback fired %d times, want %d", len(desSeq), n)
	}
	for i := range refSeq {
		if refSeq[i] != desSeq[i] {
			t.Fatalf("quantum %d diverged:\nstepped:  %s\nadvanced: %s", i, refSeq[i], desSeq[i])
		}
	}
	if got, want := ffFingerprint(des), ffFingerprint(ref); got != want {
		t.Fatalf("final state diverged:\n--- stepped ---\n%s--- advanced ---\n%s", want, got)
	}
}

func TestFastForwardSpanReplaysIdleHalt(t *testing.T) {
	// White box: a halted-idle machine has a trivially steady quantum, so
	// one span should cover the full request after the two probes.
	cfg := quietConfig()
	cfg.Idle = IdleHalt
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, err := m.fastForwardSpan(500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k != 500 {
		t.Fatalf("fastForwardSpan advanced %d quanta, want 500 (replay did not engage)", k)
	}
	if got, want := m.AdvanceStats(), (AdvanceStats{Stepped: 2, Replayed: 498, ProbePairs: 1, Certified: 1}); got != want {
		t.Fatalf("AdvanceStats = %+v, want %+v", got, want)
	}
}

func TestFastForwardSpanFarArrivalStillReplays(t *testing.T) {
	// An arrival more than MaxInt64 quanta away shares AdvanceTo's
	// conversion: its replay bound used to come out negative, so a span
	// ended at its two probes for as long as the arrival stayed pending.
	cfg := quietConfig()
	cfg.Idle = IdleHalt
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(burst(1e30, 1)); err != nil {
		t.Fatal(err)
	}
	if k, err := m.fastForwardSpan(500, nil); err != nil || k != 500 {
		t.Fatalf("fastForwardSpan = %d, %v; want 500 (a far arrival must not stop the replay)", k, err)
	}
}

func TestFastForwardSpanReplaysIdleHot(t *testing.T) {
	// Hot idle replays too, but each span is clipped to stay inside the
	// spin loop's current phase; the wrap quanta run as real steps.
	m, err := New(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	k, err := m.fastForwardSpan(500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k <= 2 || k > 500 {
		t.Fatalf("fastForwardSpan advanced %d quanta, want a bounded replay in (2, 500]", k)
	}
}

func TestFastForwardRejectsNegative(t *testing.T) {
	m := newQuiet(t)
	var se *StepError
	if err := m.FastForwardQuanta(-1, nil); !errors.As(err, &se) {
		t.Fatalf("FastForwardQuanta(-1) = %v, want *StepError", err)
	}
	if err := m.AdvanceTo(0); err != nil || m.Now() != 0 {
		t.Fatalf("AdvanceTo(0) = %v at t=%v, want no-op", err, m.Now())
	}
}

func TestAdvanceToRejectsNonFinite(t *testing.T) {
	// NaN used to be a silent no-op and +Inf a run without end.
	for _, target := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := newQuiet(t)
		var se *StepError
		if err := m.AdvanceTo(target); !errors.As(err, &se) || se.Op != "advance" {
			t.Fatalf("AdvanceTo(%v) = %v, want *StepError with Op \"advance\"", target, err)
		}
		if m.Now() != 0 || m.AdvanceStats() != (AdvanceStats{}) {
			t.Fatalf("AdvanceTo(%v) moved the machine: t=%v %+v", target, m.Now(), m.AdvanceStats())
		}
	}
}

func TestAdvanceToHugeTargetStillReplays(t *testing.T) {
	// A target more than MaxInt64 quanta away used to convert to a negative
	// count, clamp to 1 and step one quantum per iteration. No clock reaches
	// such a target (past 2^53 quanta a tick no longer moves it), so the run
	// is bounded by an arrival: the job's completion hook stops both engines
	// at the same point, by a panic the test recovers.
	const huge = 1e30
	cfg := quietConfig()
	cfg.Idle = IdleHalt
	type stop struct{}
	run := func(advance func(m *Machine) error) (m *Machine) {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Submit(burst(50.003, 1)); err != nil {
			t.Fatal(err)
		}
		m.SetCompletionHook(func(JobCompletion) { panic(stop{}) })
		defer func() {
			if r := recover(); r != nil && r != (stop{}) {
				panic(r)
			}
		}()
		t.Fatalf("returned %v before the arrival completed", advance(m))
		return nil
	}
	ref := run(func(m *Machine) error { return runUntil(m, huge) })
	des := run(func(m *Machine) error { return m.AdvanceTo(huge) })
	if got, want := ffFingerprint(des), ffFingerprint(ref); got != want {
		t.Fatalf("diverged at the completion:\n--- stepped ---\n%s--- advanced ---\n%s", want, got)
	}
	st := des.AdvanceStats()
	if st.Stepped+st.Replayed != ref.AdvanceStats().Stepped || st.Replayed < 4990 {
		t.Fatalf("AdvanceTo(%v) accounted %+v against %d stepped quanta; want the 50 idle seconds replayed", huge, st, ref.AdvanceStats().Stepped)
	}
}

func TestNextArrivalAt(t *testing.T) {
	m := newQuiet(t)
	if _, ok := m.NextArrivalAt(); ok {
		t.Fatal("fresh machine reports a pending arrival")
	}
	if err := m.Submit(burst(2.5, 1)); err != nil {
		t.Fatal(err)
	}
	if at, ok := m.NextArrivalAt(); !ok || at != 2.5 {
		t.Fatalf("NextArrivalAt = %v, %v; want 2.5, true", at, ok)
	}
}

func TestStepErrorFormatting(t *testing.T) {
	cause := errors.New("negative energy")
	err := &StepError{Machine: "p630", At: 1.23, Op: "cpu-energy", Err: cause}
	msg := err.Error()
	for _, want := range []string{"p630", "1.23", "cpu-energy", "negative energy"} {
		if !strings.Contains(msg, want) {
			t.Errorf("StepError message %q missing %q", msg, want)
		}
	}
	if !errors.Is(err, cause) {
		t.Error("errors.Is does not reach the wrapped cause")
	}
}

func TestCompletionHookOnAdvancePath(t *testing.T) {
	// Completions fired through a hook must arrive identically on both
	// engines (the serving station depends on exact completion times).
	cfg := quietConfig()
	run := func(advance bool) []string {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		m.SetCompletionHook(func(c JobCompletion) {
			got = append(got, fmt.Sprintf("%d %s %v", c.CPU, c.Program, c.At))
		})
		if err := m.Submit(burst(0.753, 3)); err != nil {
			t.Fatal(err)
		}
		if advance {
			if err := m.AdvanceTo(8.0); err != nil {
				t.Fatal(err)
			}
		} else {
			runUntil(m, 8.0)
		}
		if len(m.Completions()) != 0 {
			t.Fatal("hooked completions leaked into the slice")
		}
		return got
	}
	want, got := run(false), run(true)
	if len(want) == 0 {
		t.Fatal("no completions recorded; burst never ran")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("hook streams diverged:\nstepped:  %v\nadvanced: %v", want, got)
	}
}

func BenchmarkAdvanceIdleHour(b *testing.B) {
	cfg := quietConfig()
	cfg.Idle = IdleHalt
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.AdvanceTo(3600); err != nil {
			b.Fatal(err)
		}
	}
}
