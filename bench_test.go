// Package repro_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation, plus the ablations. Each
// benchmark regenerates its artifact at paper scale and reports the
// headline quantity through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation in one command. EXPERIMENTS.md records
// a full run against the paper's published numbers.
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

func paperScale() experiments.Options {
	return experiments.Options{Scale: 1, Seed: 1}
}

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

func BenchmarkTable1PowerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.WorstError*100, "worst-fit-err-%")
	}
}

func BenchmarkFigure1Saturation(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Figure1(o)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: saturation frequency of the most memory-intensive
		// setting (MHz).
		b.ReportMetric(rep.Curves[len(rep.Curves)-1].SaturationFreq.MHz(), "sat-MHz")
	}
}

func BenchmarkTable2PredictorError(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table2(o)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range rep.Rows {
			sum += row.DevCPU3Star
		}
		b.ReportMetric(sum/float64(len(rep.Rows)), "mean-CPU3*-dev")
	}
}

func BenchmarkFigure4Overhead(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Figure4(o)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, row := range rep.Rows {
			if row.Degradation > worst {
				worst = row.Degradation
			}
		}
		b.ReportMetric(worst*100, "worst-degradation-%")
	}
}

func BenchmarkFigure5PhaseTracking(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Figure5(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.MeanFreqCPUPhaseMHz-rep.MeanFreqMemPhaseMHz, "phase-freq-gap-MHz")
	}
}

func BenchmarkFigure6PowerLimits(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Figure6(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.MemKneeW, "mem-knee-W")
	}
}

func BenchmarkFigure7TwoPhase(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Figure7(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Budgets[len(rep.Budgets)-1].NormPerf, "perf-at-35W")
	}
}

func BenchmarkTable3Applications(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table3(o)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: mcf energy at full budget (paper: 0.43).
		b.ReportMetric(rep.Cells["mcf"][0].Energy, "mcf-energy-at-140W")
	}
}

func BenchmarkFigure8Residency(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Figure8(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rep.Residencies {
			if r.App == "mcf" && r.CapMHz == 1000 {
				b.ReportMetric(r.ModeMHz, "mcf-mode-MHz")
			}
		}
	}
}

func BenchmarkFigure9GapTrace(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Figure9(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.FracClipped*100, "clipped-%")
	}
}

func BenchmarkWorkedExampleSection5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.WorkedExample()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.T1PowerW, "T1-power-W")
	}
}

func BenchmarkAblationPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AblationPolicies()
		if err != nil {
			b.Fatal(err)
		}
		// Headline: fvsst's margin over uniform at the motivating 294 W.
		var margin float64
		for j, w := range rep.BudgetsW {
			if w == 294 {
				margin = rep.Perf["fvsst"][j] - rep.Perf["uniform"][j]
			}
		}
		b.ReportMetric(margin, "fvsst-minus-uniform")
	}
}

func BenchmarkAblationIdeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AblationIdeal()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(rep.Agreements)/float64(rep.Total), "agreement-%")
	}
}

func BenchmarkAblationIdle(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AblationIdle(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.SavedW, "saved-W")
	}
}

func BenchmarkAblationMasking(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AblationMasking(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.MaskedJobLoss*100, "masked-loss-%")
	}
}

func BenchmarkAblationActuator(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AblationActuator(o)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: ideal-DVFS runtime relative to the fetch throttle.
		b.ReportMetric(rep.Rows[2].Seconds/rep.Rows[0].Seconds, "dvfs-vs-throttle")
	}
}

func BenchmarkClusterStudy(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.ClusterStudy(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.MakespanUniform/rep.MakespanFVSST, "uniform-vs-fvsst-makespan")
	}
}

func BenchmarkAblationExecModel(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AblationExecModel(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.DevMonteCarlo/rep.DevAnalytic, "mc-vs-analytic-dev")
	}
}

func BenchmarkServerFarm(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.ServerFarm(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(1-rep.MeanPowerFVSSTW/rep.MeanPowerUnmanagedW), "power-saved-%")
	}
}

func BenchmarkAblationEpsilon(b *testing.B) {
	o := paperScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AblationEpsilon(o)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: energy at the default ε = 5%.
		b.ReportMetric(rep.Rows[1].NormEnergy, "energy-at-eps5")
	}
}
