// Command fvsst-sim runs the frequency/voltage scheduler against a
// configurable simulated SMP and prints each scheduling pass as it
// happens — the closest thing to running the paper's daemon on real
// hardware. Every startup, budget-change and idle-transition pass
// prints, and every -log-every'th timer pass.
//
// Usage examples:
//
//	fvsst-sim -jobs mcf,gzip,idle,idle -duration 5
//	fvsst-sim -jobs gzip,gap,mcf,health -budget 294 -fail-at 1.5
//	fvsst-sim -jobs synth:20,idle,idle,idle -idle-signal -epsilon 0.08
//	fvsst-sim -jobs gzip,gap,mcf,health -budget 294 -trace out.jsonl -metrics out.prom
//
// Jobs are assigned to CPUs in order: gzip, gap, mcf, health, idle,
// synth:<cpu-intensity-percent>, or file:<profile.json> (a workload
// profile saved with workload.SaveProgram).
//
// At exit it prints the completions and the ledger's compliance and
// residency sections: per trigger pass counts, missed budgets, demotions
// and overshoot, then each processor's mean frequency, clipped and idle
// shares, demotions and top frequency residencies — exactly what
// `experiments report -sections compliance,residency` prints for the
// run's -trace.
//
// Observability (see docs/observability.md): -trace streams one JSONL
// event per scheduling decision and quantum, which `experiments report`
// renders into the energy & compliance ledger; -metrics writes a
// Prometheus text-format snapshot at a clean exit; -metrics-addr serves a
// live /metrics endpoint while the simulation runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

func parseJob(spec string, scale float64) (workload.Program, error) {
	if path, ok := strings.CutPrefix(spec, "file:"); ok {
		f, err := os.Open(path)
		if err != nil {
			return workload.Program{}, err
		}
		defer f.Close()
		return workload.LoadProgram(f)
	}
	if rest, ok := strings.CutPrefix(spec, "synth:"); ok {
		intensity, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return workload.Program{}, fmt.Errorf("bad synth intensity %q: %w", rest, err)
		}
		phase, err := workload.SyntheticPhase("main", intensity, 30*scale)
		if err != nil {
			return workload.Program{}, err
		}
		return workload.Program{Name: spec, Phases: []workload.Phase{phase}}, nil
	}
	return workload.App(spec, workload.AppScale(scale))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main's body: it parses args and prints to out, with error
// returns instead of log.Fatal, so the deferred trace flush and listener
// teardown execute on every exit path.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fvsst-sim", flag.ExitOnError)
	jobs := fs.String("jobs", "mcf,idle,idle,idle", "comma-separated per-CPU jobs")
	budgetW := fs.Float64("budget", 560, "initial CPU power budget (watts)")
	failAt := fs.Float64("fail-at", 0, "simulated time of a power-supply failure dropping the budget to 294W (0 = never)")
	duration := fs.Float64("duration", 5, "simulated seconds to run")
	epsilon := fs.Float64("epsilon", 0.05, "acceptable performance loss ε")
	idleSignal := fs.Bool("idle-signal", false, "enable the firmware idle indicator")
	ideal := fs.Bool("ideal", false, "use the closed-form f_ideal instead of the ε-scan")
	scale := fs.Float64("scale", 0.5, "workload scale")
	seed := fs.Int64("seed", 1, "simulation seed")
	every := fs.Int("log-every", 10, "print every n-th timer decision (≤ 0: none)")
	tracePath := fs.String("trace", "", "write one JSONL trace event per scheduling decision to this file")
	metricsPath := fs.String("metrics", "", "write Prometheus text-format metrics to this file at exit")
	metricsAddr := fs.String("metrics-addr", "", "serve a live Prometheus /metrics endpoint on this address (e.g. :9090)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Any positive duration runs the startup pass; none leaves an empty trace.
	if !(*duration > 0) || math.IsInf(*duration, 1) {
		return fmt.Errorf("-duration %v must be finite and positive", *duration)
	}

	mcfg := machine.P630Config()
	mcfg.Seed = *seed
	m, err := machine.New(mcfg)
	if err != nil {
		return err
	}
	specs := strings.Split(*jobs, ",")
	if len(specs) > mcfg.NumCPUs {
		return fmt.Errorf("%d jobs for %d CPUs", len(specs), mcfg.NumCPUs)
	}
	for cpu, spec := range specs {
		spec = strings.TrimSpace(spec)
		if spec == "idle" || spec == "" {
			continue
		}
		prog, err := parseJob(spec, *scale)
		if err != nil {
			return err
		}
		mix, err := workload.NewMix(prog)
		if err != nil {
			return err
		}
		if err := m.SetMix(cpu, mix); err != nil {
			return err
		}
	}

	cfg := fvsst.DefaultConfig()
	cfg.Epsilon = *epsilon
	cfg.UseIdleSignal = *idleSignal
	cfg.UseIdealFrequency = *ideal
	sched, err := fvsst.New(cfg, m, units.Watts(*budgetW))
	if err != nil {
		return err
	}
	drv := fvsst.NewDriver(m, sched)
	if *failAt > 0 {
		drv.Budgets, err = power.NewBudgetSchedule(units.Watts(*budgetW),
			power.BudgetEvent{At: *failAt, Budget: units.Watts(294), Label: "supply failure"})
		if err != nil {
			return err
		}
	}

	// Every pass and every per-quantum power sample fans out to the
	// printer, the trace, the metrics and the ledger: the JSONL trace then
	// carries everything `experiments report` needs to integrate energy,
	// not just the decision log, and the ledger folds the same events
	// into the closing report.
	metrics := obs.NewMetrics()
	outs, err := obs.OpenOutputs(out, metrics.Registry, *tracePath, *metricsPath, *metricsAddr)
	if err != nil {
		return err
	}
	defer outs.Close()
	ledger := obs.NewLedger()
	all := obs.Tee(&passPrinter{w: out, s: sched, every: *every}, outs.Trace(), metrics, ledger)
	sched.SetSink(all)
	drv.Sink = all

	for m.Now() < *duration && !m.AllJobsDone() {
		if err := drv.Step(); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "\nfinished at t=%.2fs; system power %v; CPU energy %v\n",
		m.Now(), m.SystemPower(), m.CPUEnergy())
	for _, c := range m.Completions() {
		fmt.Fprintf(out, "  cpu%d %-10s done at %.2fs\n", c.CPU, c.Program, c.At)
	}
	fmt.Fprintln(out)
	if err := ledger.Summary().WriteText(out, closingSections); err != nil {
		return err
	}
	return outs.Finish()
}

// closingSections are the ledger sections printed at exit: the run's
// decision log in brief. Energy and prediction are left to `experiments
// report`; latency is wall-clock and would differ run to run.
var closingSections = []string{obs.SectionCompliance, obs.SectionResidency}

// passPrinter is the decision log, a sink on the scheduler that prints
// each pass as it happens: every startup, budget-change and
// idle-transition pass, and every -log-every'th timer pass (none when
// -log-every ≤ 0).
type passPrinter struct {
	w      io.Writer
	s      *fvsst.Scheduler
	every  int
	timers int
}

// Emit prints the pass behind a schedule event; the scheduler emits a
// pass's event after the pass becomes its LastDecision.
func (p *passPrinter) Emit(e obs.Event) {
	if e.Type != obs.EventSchedule {
		return
	}
	if e.Trigger == "timer" {
		p.timers++
		if p.every <= 0 || p.timers%p.every != 0 {
			return
		}
	}
	d, _ := p.s.LastDecision()
	fmt.Fprintln(p.w, d)
}
