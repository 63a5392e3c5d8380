// Package engine is the shared run-time substrate of the reproduction:
// the clock abstraction and the sample-every-t / schedule-every-T cadence
// that every control loop in the repo — the single-node fvsst driver, the
// in-process cluster coordinator and the networked netcluster control
// plane — previously kept its own copy of. One implementation of "what
// time is it" and "is a scheduling pass due" keeps the three loops
// behaviourally identical (the paper's §6 cadence: collect every t,
// schedule every T = n·t) and gives the simulated paths one deterministic
// time source.
package engine

import (
	"time"

	"repro/internal/units"
)

// Clock is a monotone time source in seconds. The simulated implementation
// is advanced explicitly by its owner; the wall implementation reads the
// OS monotonic clock. Everything in the repo that asks "what time is it"
// does so through this interface so a control loop runs identically under
// simulation and on real hardware.
type Clock interface {
	// Now returns the current time in seconds since the clock's epoch.
	Now() float64
}

// SimClock is the deterministic simulated clock: time advances only when
// the owner says so, one quantum (or n quanta) at a time. It is the
// single time accumulator behind machine.Machine, cluster.Coordinator and
// the netcluster coordinator epoch. Not safe for concurrent use; the
// simulation loops are single-threaded by design.
type SimClock struct {
	now     float64
	quantum float64
}

// NewSimClock returns a simulated clock at t = 0 whose Tick advances by
// quantum seconds.
func NewSimClock(quantum float64) *SimClock {
	return &SimClock{quantum: quantum}
}

// Now returns the simulated time in seconds.
func (c *SimClock) Now() float64 { return c.now }

// Tick advances the clock by one quantum.
func (c *SimClock) Tick() { c.now += c.quantum }

// TickN leaves the clock exactly where n Ticks would, bit for bit. Tick's
// accumulated rounding is observable wherever times are compared
// bit-for-bit, so a fast-forward over n quanta must reproduce it rather
// than adding n·quantum once; units.AddRepeat computes the repeated
// addition's result per binade crossed instead of per quantum.
func (c *SimClock) TickN(n int) { c.now = units.AddRepeat(c.now, c.quantum, n) }

// WallClock reads the OS monotonic clock, reporting seconds since the
// clock was created. It is the Clock a control loop uses when driving
// real hardware (or the wall-clock watchdog of a network agent).
type WallClock struct {
	epoch time.Time
}

// NewWallClock returns a wall clock whose epoch is now.
func NewWallClock() *WallClock {
	return &WallClock{epoch: time.Now()}
}

// Now returns the seconds elapsed since the clock's creation.
func (c *WallClock) Now() float64 { return time.Since(c.epoch).Seconds() }

var (
	_ Clock = (*SimClock)(nil)
	_ Clock = (*WallClock)(nil)
)
