package scenario

import "testing"

// BenchmarkSoakBatch is one bench/ soak-mix operation on one worker: 75
// cluster + 30 farm + 15 DES scenarios under the default checker suite.
// It exists to be profiled (docs/performance.md, section "soak-mix"):
//
//	go test -run '^$' -bench SoakBatch -benchtime 20x -cpuprofile cpu.out -memprofile mem.out ./internal/scenario/
func BenchmarkSoakBatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := Soak(SoakConfig{Seeds: 75, FarmSeeds: 30, DESSeeds: 15, Parallel: 1}); !rep.OK {
			b.Fatalf("soak batch failed: %+v", rep)
		}
	}
}
