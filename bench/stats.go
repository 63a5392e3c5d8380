package main

import (
	"sort"

	"repro/internal/stats"
)

func median(v []float64) float64 { return stats.Percentile(v, 50) }

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives (the "exclusive" method), so it can be held against a bound the
// way the pipeline does. Fewer than two samples have no spread.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}
