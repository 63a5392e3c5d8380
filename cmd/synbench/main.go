// Command synbench is the standalone synthetic benchmark of §7.3: a
// program with an adjustable ratio of CPU-intensive to memory-intensive
// work and two phases of configurable length. It reports throughput per
// phase at a fixed frequency — the tool used to produce Figure 1.
//
// Usage:
//
//	synbench -p1 100 -p2 20 -seconds 2 -freq 750MHz
//	synbench -sweep            # full intensity × frequency sweep
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

func run(intensity float64, seconds float64, f units.Frequency, seed int64) (instrPerSec float64, err error) {
	h := memhier.P630()
	probe, err := workload.SyntheticIntensityPhase("p", intensity, 1000, h)
	if err != nil {
		return 0, err
	}
	instr := workload.InstructionsForDuration(probe, h, 1e9, seconds)
	phase, err := workload.SyntheticIntensityPhase("main", intensity, instr, h)
	if err != nil {
		return 0, err
	}
	prog := workload.Program{Name: "synbench", Phases: []workload.Phase{phase}}

	mcfg := machine.P630Config()
	mcfg.NumCPUs = 1
	mcfg.Seed = seed
	m, err := machine.New(mcfg)
	if err != nil {
		return 0, err
	}
	mix, err := workload.NewMix(prog)
	if err != nil {
		return 0, err
	}
	if err := m.SetMix(0, mix); err != nil {
		return 0, err
	}
	if err := m.SetFrequency(0, f); err != nil {
		return 0, err
	}
	if done, err := m.RunUntilAllDone(seconds*30 + 10); err != nil {
		return 0, err
	} else if !done {
		return 0, fmt.Errorf("did not finish")
	}
	comps := m.Completions()
	return float64(instr) / comps[0].At, nil
}

func main() {
	p1 := flag.Float64("p1", 100, "phase 1 CPU intensity (0-100)")
	p2 := flag.Float64("p2", 20, "phase 2 CPU intensity (0-100)")
	seconds := flag.Float64("seconds", 2, "per-phase target length at 1GHz")
	freqStr := flag.String("freq", "1GHz", "fixed frequency to run at")
	sweep := flag.Bool("sweep", false, "run the full intensity × frequency sweep instead")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	if *sweep {
		set := power.PaperTable1().Frequencies()
		tab := telemetry.Table{
			Title:   "synthetic benchmark throughput (Ginstr/s)",
			Headers: []string{"Frequency", "cpu100", "cpu75", "cpu50", "cpu25", "cpu0"},
		}
		for _, f := range set {
			row := []string{f.String()}
			for _, in := range []float64{100, 75, 50, 25, 0} {
				tput, err := run(in, *seconds, f, *seed)
				if err != nil {
					log.Fatal(err)
				}
				row = append(row, fmt.Sprintf("%.3f", tput/1e9))
			}
			tab.MustAddRow(row...)
		}
		fmt.Print(tab.String())
		return
	}

	f, err := units.ParseFrequency(*freqStr)
	if err != nil {
		log.Fatal(err)
	}
	for i, in := range []float64{*p1, *p2} {
		tput, err := run(in, *seconds, f, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("phase %d (cpu intensity %3.0f%%) at %v: %.3f Ginstr/s\n", i+1, in, f, tput/1e9)
	}
}
