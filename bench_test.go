// Package repro_test holds the module-level benchmarks: BenchmarkExperiments
// regenerates every registered experiment at paper scale (one
// sub-benchmark per registry ID, so `go test -bench=Experiments/fig8 .`
// runs one), and the scheduler benchmarks bound the cost of the
// observability sinks. They time the code; the experiments' claims are
// checked by internal/experiments' TestRunAllClaims, and the repository's
// performance is measured by `go run ./bench`.
package repro_test

import (
	"io"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/workload"
)

// benchSchedulerDriver runs one simulated second of the coupled
// machine+scheduler system per iteration — the end-to-end scheduler hot
// path. wire attaches observability sinks (nil for the no-sink baseline),
// so comparing the variants bounds the tracing overhead.
func benchSchedulerDriver(b *testing.B, wire func(*fvsst.Driver, *fvsst.Scheduler)) {
	for i := 0; i < b.N; i++ {
		m, err := machine.New(machine.P630Config())
		if err != nil {
			b.Fatal(err)
		}
		for cpu := 0; cpu < 4; cpu++ {
			phase := workload.Phase{Name: "cpu", Alpha: 1.4, Instructions: 1e15}
			if cpu >= 2 {
				phase = workload.Phase{Name: "mem", Alpha: 1.1,
					Rates:        memhier.AccessRates{L2PerInstr: 0.030, L3PerInstr: 0.006, MemPerInstr: 0.0186},
					Instructions: 1e15}
			}
			mix, err := workload.NewMix(workload.Program{Name: phase.Name, Phases: []workload.Phase{phase}})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.SetMix(cpu, mix); err != nil {
				b.Fatal(err)
			}
		}
		s, err := fvsst.New(fvsst.DefaultConfig(), m, units.Watts(294))
		if err != nil {
			b.Fatal(err)
		}
		drv := fvsst.NewDriver(m, s)
		if wire != nil {
			wire(drv, s)
		}
		if err := drv.Run(1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerNoSink(b *testing.B) {
	benchSchedulerDriver(b, nil)
}

func BenchmarkSchedulerObsSinks(b *testing.B) {
	metrics := obs.NewMetrics()
	trace := obs.NewJSONLWriter(io.Discard)
	benchSchedulerDriver(b, func(drv *fvsst.Driver, s *fvsst.Scheduler) {
		s.SetSink(obs.Tee(trace, metrics))
		drv.Sink = metrics
	})
}

// BenchmarkExperiments regenerates every registered experiment at paper
// scale, one sub-benchmark per registry ID.
func BenchmarkExperiments(b *testing.B) {
	for _, spec := range experiments.Registry() {
		b.Run(spec.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spec.Run(experiments.Options{Scale: 1, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
