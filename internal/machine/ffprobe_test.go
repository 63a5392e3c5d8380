package machine

import (
	"testing"

	"repro/internal/memhier"
)

func ffProbeCfg() Config {
	cfg := P630Config()
	cfg.NumCPUs = 4
	cfg.LatencyJitterSigma = 0
	cfg.Contention = memhier.Contention{}
	cfg.ThrottleSettle = 0
	cfg.Idle = IdleHalt
	cfg.Seed = 7
	return cfg
}

func BenchmarkStepQuantumIdle(b *testing.B) {
	m, err := New(ffProbeCfg())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.StepQuantum(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastForwardIdleQuantum(b *testing.B) {
	m, err := New(ffProbeCfg())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := b.N
	for n > 0 {
		k := 100000
		if k > n {
			k = n
		}
		if err := m.FastForwardQuanta(k, nil); err != nil {
			b.Fatal(err)
		}
		n -= k
	}
}
