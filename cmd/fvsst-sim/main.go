// Command fvsst-sim runs the frequency/voltage scheduler against a
// configurable simulated SMP and prints the decision log — the closest
// thing to running the paper's daemon on real hardware.
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
// Observability (see docs/observability.md): -trace streams one JSONL
// event per scheduling decision, -metrics writes a Prometheus text-format
// snapshot at exit, and -metrics-addr serves a live /metrics endpoint
// while the simulation runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
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

	// Observability wiring: the decision trace goes to the JSONL file, the
	// metrics aggregate everything including per-quantum power gauges.
	var sinks []obs.Sink
	var trace *obs.JSONLWriter
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		trace = obs.NewJSONLWriter(f)
		// Flush on every exit path (defers run before f.Close); the
		// explicit Close below reports the sticky error on the happy path.
		defer trace.Close()
		sinks = append(sinks, trace)
	}
	var metrics *obs.Metrics
	if *metricsPath != "" || *metricsAddr != "" {
		metrics = obs.NewMetrics()
		sinks = append(sinks, metrics)
	}
	if len(sinks) > 0 {
		// Decisions and per-quantum power samples both fan out to every
		// sink: the JSONL trace then carries everything `experiments
		// report` needs to integrate energy, not just the decision log.
		all := obs.Tee(sinks...)
		sched.SetSink(all)
		drv.Sink = all
	}
	if *metricsAddr != "" {
		// Bind synchronously so an unusable address fails the run up
		// front instead of racing against a short simulation.
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer ln.Close()
		// Print the bound address, not the flag: with ":0" the OS picks
		// the port, and scripts need to learn which one.
		fmt.Fprintf(out, "metrics endpoint listening on %s\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, metrics.Registry.Handler()); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("metrics endpoint: %v", err)
			}
		}()
	}

	timerSeen := 0
	// Every pass lands in a later quantum than the Step before it, so a
	// newest pass whose time differs from the last one seen is new; of a
	// Step's passes only the last is printed.
	lastAt := -1.0
	for m.Now() < *duration && !m.AllJobsDone() {
		if err := drv.Step(); err != nil {
			return err
		}
		d, ok := sched.LastDecision()
		if !ok || d.At == lastAt {
			continue
		}
		lastAt = d.At
		if d.Trigger == "timer" {
			timerSeen++
			if *every <= 0 || timerSeen%*every != 0 {
				continue
			}
		}
		fmt.Fprintln(out, d)
	}

	fmt.Fprintf(out, "\nfinished at t=%.2fs; system power %v; CPU energy %v\n",
		m.Now(), m.SystemPower(), m.CPUEnergy())
	for _, c := range m.Completions() {
		fmt.Fprintf(out, "  cpu%d %-10s done at %.2fs\n", c.CPU, c.Program, c.At)
	}
	if sum, err := fvsst.Summarize(sched.Decisions()); err == nil {
		fmt.Fprintln(out)
		fmt.Fprint(out, sum.Render())
	}

	if trace != nil {
		if err := trace.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(out, "\ndecision trace written to %s\n", *tracePath)
	}
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			return err
		}
		if err := metrics.Registry.WritePrometheus(f); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics written to %s\n", *metricsPath)
	}
	return nil
}
