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

// Ticks returns how many dispatch periods have elapsed.
func (c *Cadence) Ticks() int { return c.ticks }

// TicksUntilDue returns how many further Ticks until the next due edge
// (1 ≤ result ≤ periods) — the cadence's "next interesting time" on a
// discrete-event timeline.
func (c *Cadence) TicksUntilDue() int {
	return c.periods - c.ticks%c.periods
}

// Periods returns n, the ticks per scheduling pass.
func (c *Cadence) Periods() int { return c.periods }

// Loop couples a simulated clock with a cadence: one Tick advances time by
// a quantum and answers whether a scheduling pass is due at the new time.
// It is the run-loop core shared by the in-process cluster coordinator and
// the networked coordinator's round epoch (which ticks once per period,
// n = 1).
type Loop struct {
	clock   SimClock
	cadence Cadence
}

// NewLoop builds a loop advancing quantum seconds per tick with a pass due
// every periods ticks.
func NewLoop(quantum float64, periods int) (*Loop, error) {
	if quantum <= 0 {
		return nil, fmt.Errorf("engine: loop quantum %v must be positive", quantum)
	}
	cad, err := NewCadence(periods)
	if err != nil {
		return nil, err
	}
	return &Loop{clock: SimClock{quantum: quantum}, cadence: cad}, nil
}

// Tick advances the loop one quantum and reports whether a scheduling pass
// is due.
func (l *Loop) Tick() bool {
	l.clock.Tick()
	return l.cadence.Tick()
}

// Now returns the loop's simulated time in seconds.
func (l *Loop) Now() float64 { return l.clock.Now() }

// Quantum returns the seconds advanced per tick.
func (l *Loop) Quantum() float64 { return l.clock.Quantum() }

// Ticks returns the number of quanta elapsed.
func (l *Loop) Ticks() int { return l.cadence.Ticks() }

// TicksUntilDue returns how many further Ticks until the next scheduling
// pass is due.
func (l *Loop) TicksUntilDue() int { return l.cadence.TicksUntilDue() }

// SkipTicks advances the loop n quanta in one call, erroring rather than
// silently crossing a due edge: a DES driver may only skip strictly up to
// the next pass (n < TicksUntilDue), so no pass can be jumped over. The
// clock lands on the bits n Ticks would leave (see SimClock.TickN), so
// skipped time is bit-identical to ticked time.
func (l *Loop) SkipTicks(n int) error {
	if n < 0 {
		return fmt.Errorf("engine: loop: cannot skip %d ticks", n)
	}
	if n >= l.cadence.TicksUntilDue() {
		return fmt.Errorf("engine: loop: skipping %d ticks would cross the due edge in %d", n, l.cadence.TicksUntilDue())
	}
	l.clock.TickN(n)
	l.cadence.ticks += n
	return nil
}
