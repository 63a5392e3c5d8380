package machine

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
)

// renderSeededStreams runs the two machine configurations that draw from
// the seeded source — latency jitter and Monte-Carlo execution — and
// renders every counter.
func renderSeededStreams(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, mc := range []bool{false, true} {
		cfg := mcConfig()
		cfg.MonteCarloExec = mc
		cfg.Seed = 42
		if !mc {
			cfg.LatencyJitterSigma = 0.1
		}
		m, err := New(cfg, []workload.Program{memPhaseProg(1e12)})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20; q++ {
			if err := m.StepQuantum(); err != nil {
				t.Fatal(err)
			}
			s, err := m.ReadCounters(0)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "mc=%v q=%d instr=%d cyc=%d l2=%d l3=%d mem=%d\n",
				mc, q, s.Instructions, s.Cycles, s.L2Refs, s.L3Refs, s.MemRefs)
		}
	}
	return b.String()
}

// TestSeededStreamsMatchGolden pins the draws of a jittered machine and a
// Monte-Carlo machine to the bytes they produced when New seeded the
// source eagerly: building a source on first draw must start the same
// stream.
func TestSeededStreamsMatchGolden(t *testing.T) {
	got := renderSeededStreams(t)
	want, err := os.ReadFile("testdata/seeded_streams.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("seeded streams moved:\n--- got\n%s--- want\n%s", got, want)
	}
	// And a machine with neither effect never builds a source.
	quiet := newQuiet(t)
	for q := 0; q < 20; q++ {
		if err := quiet.StepQuantum(); err != nil {
			t.Fatal(err)
		}
	}
	if quiet.rng != nil {
		t.Fatal("jitter-free analytic machine built a random source")
	}
}
