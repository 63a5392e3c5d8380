// Package repro_test holds the module-level benchmark BenchmarkExperiments:
// it regenerates every registered experiment at paper scale, one
// sub-benchmark per registry ID, so `go test -bench=Experiments/fig8 .`
// runs one. It times the code; the experiments' claims are checked by
// internal/experiments' TestRunAllClaims, and the repository's
// performance is measured by `go run ./bench`.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
)

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
