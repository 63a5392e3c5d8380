package engine

import "fmt"

// Cadence counts dispatch-period ticks and reports when a scheduling pass
// is due — the paper's T = n·t rule (§6): counters are collected every
// dispatch period t and every n-th collection triggers a pass. It is a
// small value type so owners embed it instead of keeping a bare counter
// and a modulo.
type Cadence struct {
	periods int
	ticks   int
}

// NewCadence returns a cadence that is due every n ticks. n must be ≥ 1.
func NewCadence(n int) (Cadence, error) {
	if n < 1 {
		return Cadence{}, fmt.Errorf("engine: cadence periods %d must be ≥ 1", n)
	}
	return Cadence{periods: n}, nil
}

// Tick records one dispatch period and reports whether a scheduling pass
// is due (every n-th tick).
func (c *Cadence) Tick() bool {
	c.ticks++
	return c.ticks%c.periods == 0
}
