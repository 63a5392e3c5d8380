package engine

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForEachIndexRunsEveryIndexOnce checks that each index in [0, n)
// is handed to exactly one call, for pools smaller than, equal to and
// larger than n, including the empty range.
func TestForEachIndexRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		for _, workers := range []int{0, 1, 3, n + 5} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				calls := make([]atomic.Int32, n)
				var total atomic.Int32
				ForEachIndex(n, workers, func(i int) {
					calls[i].Add(1)
					total.Add(1)
				})
				if got := int(total.Load()); got != n {
					t.Fatalf("%d calls, want %d", got, n)
				}
				for i := range calls {
					if c := calls[i].Load(); c != 1 {
						t.Fatalf("index %d ran %d times", i, c)
					}
				}
			})
		}
	}
}
