package fvsst

import (
	"io"
	"testing"

	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/workload"
)

// benchSchedule measures one Schedule pass with the given sink attached —
// the hot path the obs layer must not slow down when tracing is off.
func benchSchedule(b *testing.B, sink obs.Sink) {
	m := quietMachine(b)
	for cpu := 0; cpu < 2; cpu++ {
		mix, err := workload.NewMix(cpuProgram("cpu", 1e15))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.SetMix(cpu, mix); err != nil {
			b.Fatal(err)
		}
	}
	for cpu := 2; cpu < 4; cpu++ {
		mix, err := workload.NewMix(memProgram("mem", 1e15))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.SetMix(cpu, mix); err != nil {
			b.Fatal(err)
		}
	}
	s, err := New(noOverheadConfig(), m, units.Watts(294))
	if err != nil {
		b.Fatal(err)
	}
	s.SetSink(sink)
	// Warm a full counter window so Schedule runs the real Step-1 path.
	drv := NewDriver(m, s)
	if err := drv.Run(0.2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule("timer"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleNoSink(b *testing.B)      { benchSchedule(b, nil) }
func BenchmarkScheduleMetricsSink(b *testing.B) { benchSchedule(b, obs.NewMetrics()) }
func BenchmarkScheduleJSONLSink(b *testing.B)   { benchSchedule(b, obs.NewJSONLWriter(io.Discard)) }
