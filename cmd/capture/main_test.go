package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// TestCaptureRoundTrip captures each application, reloads the written
// profile the way fvsst-sim -jobs file: does, and checks the profile
// carries about the instructions the source application ran.
func TestCaptureRoundTrip(t *testing.T) {
	const scale = 0.05
	for _, app := range []string{"gzip", "gap", "mcf", "health"} {
		t.Run(app, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), app+".json")
			if err := run([]string{"-app", app, "-scale", fmt.Sprint(scale), "-o", path}, io.Discard); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			captured, err := workload.LoadProgram(f)
			if err != nil {
				t.Fatal(err)
			}
			src, err := workload.App(app, workload.AppScale(scale))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := src.TotalInstructions()
			got, _ := captured.TotalInstructions()
			rel := (float64(got) - float64(want)) / float64(want)
			t.Logf("%d → %d phases, instructions %+.1f%%", len(src.Phases), len(captured.Phases), 100*rel)
			if math.Abs(rel) > 0.05 {
				t.Errorf("captured %d instructions, source ran %d: off by more than 5%%", got, want)
			}
		})
	}
}
