package engine

import (
	"fmt"
	"time"
)

// Lease is the watchdog primitive behind the netcluster agent failsafe: a
// deadline that must be re-armed (Touched) before Duration elapses, over
// any Clock. When the lease runs out, Expire reports it exactly once —
// the caller takes its failsafe action on that edge — and Touch re-arms
// it. A SimClock makes lease behaviour unit-testable without sleeping;
// the agent runs it over a WallClock.
//
// Lease is not synchronised; the owner guards it with whatever lock
// protects the rest of its state (the agent's mutex, in practice).
type Lease struct {
	dur     float64
	clock   Clock
	last    float64
	tripped bool
}

// NewLease returns a lease of duration d over clock, armed as of the
// clock's current time. A nil clock selects a fresh WallClock.
func NewLease(d time.Duration, clock Clock) (*Lease, error) {
	if d <= 0 {
		return nil, fmt.Errorf("engine: lease duration %v must be positive", d)
	}
	if clock == nil {
		clock = NewWallClock()
	}
	return &Lease{dur: d.Seconds(), clock: clock, last: clock.Now()}, nil
}

// Touch re-arms the lease: contact happened now.
func (l *Lease) Touch() {
	l.last = l.clock.Now()
	l.tripped = false
}

// Expire reports true exactly once when the lease has run out since the
// last Touch; subsequent calls return false until the lease is re-armed.
func (l *Lease) Expire() bool {
	if l.tripped || l.clock.Now()-l.last <= l.dur {
		return false
	}
	l.tripped = true
	return true
}
