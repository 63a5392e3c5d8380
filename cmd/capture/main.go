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
	"log"
	"os"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	app := flag.String("app", "mcf", "workload to capture (gzip, gap, mcf, health)")
	scale := flag.Float64("scale", 0.2, "workload scale")
	freqStr := flag.String("freq", "1GHz", "frequency to run the capture at")
	out := flag.String("o", "", "output profile path (default <app>-captured.json)")
	seed := flag.Int64("seed", 1, "simulation seed")
	merge := flag.Float64("merge", 0.15, "phase merge tolerance (relative)")
	flag.Parse()

	prog, err := workload.App(*app, workload.AppScale(*scale))
	if err != nil {
		log.Fatal(err)
	}
	f, err := units.ParseFrequency(*freqStr)
	if err != nil {
		log.Fatal(err)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-captured.json", *app)
	}

	// Run the app alone at the capture frequency, sampling every quantum.
	mcfg := machine.P630Config()
	mcfg.NumCPUs = 1
	mcfg.Seed = *seed
	m, err := machine.New(mcfg)
	if err != nil {
		log.Fatal(err)
	}
	mix, err := workload.NewMix(prog)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.SetMix(0, mix); err != nil {
		log.Fatal(err)
	}
	if err := m.SetFrequency(0, f); err != nil {
		log.Fatal(err)
	}

	var obs []workload.WindowObservation
	var prev counters.Sample
	total, _ := prog.TotalInstructions()
	deadline := float64(total)*20/f.Hz() + 10
	for m.Now() < deadline && !m.AllJobsDone() {
		if err := m.StepQuantum(); err != nil {
			log.Fatal(err)
		}
		cur, err := m.ReadCounters(0)
		if err != nil {
			log.Fatal(err)
		}
		delta, err := cur.Sub(prev)
		if err != nil {
			log.Fatal(err)
		}
		prev = cur
		fHz := delta.ObservedFrequencyHz()
		if fHz <= 0 {
			continue
		}
		obs = append(obs, workload.WindowObservation{Delta: delta, FreqHz: fHz})
	}
	if !m.AllJobsDone() {
		log.Fatalf("capture run did not finish within %v simulated seconds", deadline)
	}

	cfg := workload.DefaultCaptureConfig()
	cfg.MergeTolerance = *merge
	captured, err := workload.FromObservations(*app+"-captured", obs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	file, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer file.Close()
	if err := workload.SaveProgram(file, captured); err != nil {
		log.Fatal(err)
	}
	totalInstr, _ := captured.TotalInstructions()
	fmt.Printf("captured %d windows of %s at %v into %d phases (%d instructions)\n",
		len(obs), *app, f, len(captured.Phases), totalInstr)
	fmt.Printf("profile written to %s — replay with: fvsst-sim -jobs file:%s\n", path, path)
}
