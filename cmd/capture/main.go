// Command capture runs a workload in the simulator, samples its
// performance-counter windows the way the fvsst daemon does, reconstructs
// a phase-structured profile from the windows (workload.FromObservations —
// the offline post-processing workflow of the predecessor study [2]) and
// writes it as JSON. The emitted profile replays via
//
//	fvsst-sim -jobs file:<profile.json>
//
// Usage:
//
//	capture -app mcf -scale 0.2 -o mcf-captured.json
//	capture -app gzip -freq 750MHz -o gzip-at-750.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main's body: it parses args, captures, writes the profile and
// reports to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	app := fs.String("app", "mcf", "workload to capture (gzip, gap, mcf, health)")
	scale := fs.Float64("scale", 0.2, "workload scale")
	freqStr := fs.String("freq", "1GHz", "frequency to run the capture at")
	outPath := fs.String("o", "", "output profile path (default <app>-captured.json)")
	seed := fs.Int64("seed", 1, "simulation seed")
	merge := fs.Float64("merge", 0.15, "phase merge tolerance (relative)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	prog, err := workload.App(*app, workload.AppScale(*scale))
	if err != nil {
		return err
	}
	f, err := units.ParseFrequency(*freqStr)
	if err != nil {
		return err
	}
	path := *outPath
	if path == "" {
		path = fmt.Sprintf("%s-captured.json", *app)
	}

	// Run the app alone at the capture frequency, sampling every quantum.
	mcfg := machine.P630Config()
	mcfg.NumCPUs = 1
	mcfg.Seed = *seed
	m, err := machine.New(mcfg)
	if err != nil {
		return err
	}
	mix, err := workload.NewMix(prog)
	if err != nil {
		return err
	}
	if err := m.SetMix(0, mix); err != nil {
		return err
	}
	if err := m.SetFrequency(0, f); err != nil {
		return err
	}

	var obs []workload.WindowObservation
	var prev counters.Sample
	total, _ := prog.TotalInstructions()
	deadline := float64(total)*20/f.Hz() + 10
	for m.Now() < deadline && !m.AllJobsDone() {
		if err := m.StepQuantum(); err != nil {
			return err
		}
		cur, err := m.ReadCounters(0)
		if err != nil {
			return err
		}
		delta, err := cur.Sub(prev)
		if err != nil {
			return err
		}
		prev = cur
		fHz := delta.ObservedFrequencyHz()
		if fHz <= 0 {
			continue
		}
		obs = append(obs, workload.WindowObservation{Delta: delta, FreqHz: fHz})
	}
	if !m.AllJobsDone() {
		return fmt.Errorf("capture run did not finish within %v simulated seconds", deadline)
	}

	cfg := workload.DefaultCaptureConfig()
	cfg.MergeTolerance = *merge
	captured, err := workload.FromObservations(*app+"-captured", obs, cfg)
	if err != nil {
		return err
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.SaveProgram(file, captured); err != nil {
		file.Close()
		return err
	}
	if err := file.Close(); err != nil {
		return err
	}
	totalInstr, _ := captured.TotalInstructions()
	fmt.Fprintf(out, "captured %d windows of %s at %v into %d phases (%d instructions)\n",
		len(obs), *app, f, len(captured.Phases), totalInstr)
	fmt.Fprintf(out, "profile written to %s — replay with: fvsst-sim -jobs file:%s\n", path, path)
	return nil
}
