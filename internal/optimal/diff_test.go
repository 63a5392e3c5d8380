package optimal_test

import (
	"math"

	"repro/internal/optimal"
	"repro/internal/units"
)

// bruteForce is the independent witness the differential tests pin the
// solvers against: it enumerates every assignment with idx_i ≤ upper_i by
// odometer and returns the minimum total predicted loss of any assignment
// whose table power fits the budget, or found=false when none does. It
// shares nothing with the solvers beyond the accumulation-order
// convention: both sums run in CPU order, which makes the result
// bit-comparable to the DP. Callers bound the state count themselves
// (Π(upper_i+1) grows fast).
func bruteForce(p optimal.Problem, losses [][]float64) (best float64, found bool) {
	n := len(p.Upper)
	idx := make([]int, n)
	best = math.Inf(1)
	for {
		var pow units.Power
		total := 0.0
		for i := 0; i < n; i++ {
			pow += p.Table.PowerAtIndex(idx[i])
			total += losses[i][idx[i]]
		}
		if pow <= p.Budget && total < best {
			best, found = total, true
		}
		k := 0
		for k < n {
			if idx[k] < p.Upper[k] {
				idx[k]++
				break
			}
			idx[k] = 0
			k++
		}
		if k == n {
			return best, found
		}
	}
}
