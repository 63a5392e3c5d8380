package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// ServerFarmReport extends the evaluation to the open-workload server
// setting the introduction motivates: a node receiving a diurnal request
// load. fvsst (with the idle signal) tracks demand — power follows the
// day/night curve — while an unmanaged node burns full power around the
// clock. Unlike the related demand-scaling work (§3.1), fvsst also keeps
// a global budget enforceable at the same time.
type ServerFarmReport struct {
	// JobsCompleted under each regime (must match — no work is dropped).
	JobsCompleted int
	// MeanPowerFVSSTW / MeanPowerUnmanagedW are time-averaged system
	// powers.
	MeanPowerFVSSTW     float64
	MeanPowerUnmanagedW float64
	// PeakPowerW / TroughPowerW are the fvsst run's mean powers during
	// the high- and low-demand half-periods, showing demand tracking.
	PeakPowerW   float64
	TroughPowerW float64
	// P95LatencyPenalty is the ratio of the 95th-percentile job sojourn
	// time under fvsst to unmanaged.
	P95LatencyPenalty float64
}

// serverRequest builds one request-burst job: mostly memory-bound service
// (session lookups) with a CPU-bound tail (response rendering).
func serverRequest(i int) workload.Program {
	return workload.Program{
		Name: fmt.Sprintf("req%d", i),
		Phases: []workload.Phase{
			{Name: "lookup", Alpha: 1.1,
				Rates:        memhier.AccessRates{L2PerInstr: 0.02, L3PerInstr: 0.004, MemPerInstr: 0.012},
				Instructions: 2e6, NonMemStallCyclesPerInstr: 0.08},
			{Name: "render", Alpha: 1.3,
				Rates:        memhier.AccessRates{L2PerInstr: 0.006, MemPerInstr: 0.0004},
				Instructions: 4e6, NonMemStallCyclesPerInstr: 0.08},
		},
	}
}

type farmOutcome struct {
	completed  int
	meanPowerW float64
	peakW      float64
	troughW    float64
	sojourns   []float64
}

func (o Options) farmRun(managed bool, sched workload.Schedule, period, horizon float64) (farmOutcome, error) {
	m, err := newMachine(o.machineConfig(4))
	if err != nil {
		return farmOutcome{}, err
	}
	if err := m.Submit(sched); err != nil {
		return farmOutcome{}, err
	}

	var drv *fvsst.Driver
	if managed {
		cfg := fvsst.DefaultConfig()
		cfg.UseIdleSignal = true
		if drv, err = newDriver(m, cfg, units.Watts(560)); err != nil {
			return farmOutcome{}, err
		}
	}

	var powerSum, peakSum, troughSum float64
	var powerN, peakN, troughN int
	res, err := runToCompletion(m, drv, horizon+5, func(m *machine.Machine) {
		p := m.SystemPower().W()
		powerSum += p
		powerN++
		// First half of each period is the demand peak (sin > 0).
		phase := m.Now() / period
		if phase-float64(int(phase)) < 0.5 {
			peakSum += p
			peakN++
		} else {
			troughSum += p
			troughN++
		}
	})
	if err != nil {
		return farmOutcome{}, err
	}

	// Sojourn times: match completions to arrivals per CPU in FIFO order
	// (round-robin mixes preserve per-CPU arrival order for identical
	// jobs).
	byCPUArr := map[int][]float64{}
	for _, a := range sched {
		byCPUArr[a.CPU] = append(byCPUArr[a.CPU], a.At)
	}
	byCPUDone := map[int][]float64{}
	for _, c := range res.Completions {
		byCPUDone[c.CPU] = append(byCPUDone[c.CPU], c.At)
	}
	var sojourns []float64
	completed := 0
	for cpu, arr := range byCPUArr {
		done := byCPUDone[cpu]
		sort.Float64s(arr)
		sort.Float64s(done)
		if len(done) != len(arr) {
			return farmOutcome{}, fmt.Errorf("experiments: cpu %d drained %d of %d jobs", cpu, len(done), len(arr))
		}
		for i := range arr {
			sojourns = append(sojourns, done[i]-arr[i])
			completed++
		}
	}
	out := farmOutcome{
		completed:  completed,
		meanPowerW: powerSum / float64(powerN),
		sojourns:   sojourns,
	}
	if peakN > 0 {
		out.peakW = peakSum / float64(peakN)
	}
	if troughN > 0 {
		out.troughW = troughSum / float64(troughN)
	}
	return out, nil
}

// ServerFarm runs the diurnal-load study.
func ServerFarm(o Options) (*ServerFarmReport, error) {
	period := 4.0 * float64(o.Scale)
	if period < 2 {
		period = 2
	}
	horizon := 2 * period
	rng := rand.New(rand.NewSource(o.Seed + 77))
	// Each request is ~17 ms of work; a base rate of 30/s puts mean
	// utilisation around 25% with peaks near 50% — a realistically
	// provisioned server, leaving idle capacity for fvsst to park.
	sched, err := workload.DiurnalArrivals(rng, 30, 0.9, period, horizon, 4, serverRequest)
	if err != nil {
		return nil, err
	}

	managed, err := o.farmRun(true, sched, period, horizon)
	if err != nil {
		return nil, err
	}
	unmanaged, err := o.farmRun(false, sched, period, horizon)
	if err != nil {
		return nil, err
	}
	if managed.completed != unmanaged.completed {
		return nil, fmt.Errorf("experiments: completion mismatch %d vs %d", managed.completed, unmanaged.completed)
	}
	rep := &ServerFarmReport{
		JobsCompleted:       managed.completed,
		MeanPowerFVSSTW:     managed.meanPowerW,
		MeanPowerUnmanagedW: unmanaged.meanPowerW,
		PeakPowerW:          managed.peakW,
		TroughPowerW:        managed.troughW,
	}
	mp := stats.Percentile(managed.sojourns, 95)
	up := stats.Percentile(unmanaged.sojourns, 95)
	if up > 0 {
		rep.P95LatencyPenalty = mp / up
	}
	return rep, nil
}

// Render formats the report.
func (r *ServerFarmReport) Render() string {
	return fmt.Sprintf(
		"Server farm: diurnal request load on a 4-way node\n"+
			"  jobs completed: %d (both regimes)\n"+
			"  mean system power: fvsst %.0fW vs unmanaged %.0fW (%.0f%% saved)\n"+
			"  fvsst power tracks demand: peak half-periods %.0fW, trough %.0fW\n"+
			"  p95 sojourn-time penalty: %.2fx\n",
		r.JobsCompleted,
		r.MeanPowerFVSSTW, r.MeanPowerUnmanagedW,
		100*(1-r.MeanPowerFVSSTW/r.MeanPowerUnmanagedW),
		r.PeakPowerW, r.TroughPowerW,
		r.P95LatencyPenalty)
}
