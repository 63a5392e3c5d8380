package engine

import (
	"math"
	"testing"
	"time"
)

func TestSimClockTickAndAdvance(t *testing.T) {
	c := NewSimClock(0.010)
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v, want 0", c.Now())
	}
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	if got := c.Now(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("100 ticks of 10ms = %v, want 1.0", got)
	}
	c.TickN(50)
	if got := c.Now(); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("after TickN(50): %v, want 1.5", got)
	}
}

// TestTickNMatchesTick walks a 10 ms clock from 0 to 3600 s — some 18
// binades — by Tick, and requires TickN to land on the same bits both in
// one call from zero and continued in uneven pieces from wherever the last
// piece ended.
func TestTickNMatchesTick(t *testing.T) {
	for _, q := range []float64{0.01, 0.001, 0.0125} {
		ticked, pieces := NewSimClock(q), NewSimClock(q)
		done := 0
		for _, n := range []int{0, 1, 2, 3, 7, 100, 4096, 99_999, 360_000} {
			pieces.TickN(n - done)
			for ; done < n; done++ {
				ticked.Tick()
			}
			whole := NewSimClock(q)
			whole.TickN(n)
			for _, c := range []*SimClock{whole, pieces} {
				if math.Float64bits(c.Now()) != math.Float64bits(ticked.Now()) {
					t.Fatalf("q=%v: TickN to %d quanta reads %v (%#x), %d Ticks read %v (%#x)",
						q, n, c.Now(), math.Float64bits(c.Now()), n, ticked.Now(), math.Float64bits(ticked.Now()))
				}
			}
		}
		before := ticked.Now()
		ticked.TickN(-5)
		if ticked.Now() != before {
			t.Fatalf("TickN(-5) moved the clock from %v to %v", before, ticked.Now())
		}
	}
}

func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Fatalf("wall clock did not advance: %v then %v", a, b)
	}
}

func TestCadenceDueEveryN(t *testing.T) {
	cad, err := NewCadence(10)
	if err != nil {
		t.Fatal(err)
	}
	due := 0
	for i := 1; i <= 35; i++ {
		if cad.Tick() {
			due++
			if i%10 != 0 {
				t.Fatalf("due at tick %d, want multiples of 10 only", i)
			}
		}
	}
	if due != 3 {
		t.Fatalf("%d passes due over 35 ticks, want 3", due)
	}
	if cad.ticks != 35 || cad.periods != 10 {
		t.Fatalf("ticks %d periods %d, want 35/10", cad.ticks, cad.periods)
	}
}

func TestCadenceRejectsBadPeriods(t *testing.T) {
	if _, err := NewCadence(0); err == nil {
		t.Fatal("NewCadence(0) accepted")
	}
}

func TestLeaseOverSimClock(t *testing.T) {
	clock := NewSimClock(1)
	lease, err := NewLease(5*time.Second, clock)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		clock.Tick()
		if lease.Expire() {
			t.Fatalf("lease expired after %ds of a 5s lease", i+1)
		}
	}
	clock.Tick() // 6s since arm
	if !lease.Expire() {
		t.Fatal("lease did not expire past its duration")
	}
	if !lease.tripped {
		t.Fatal("tripped false after expiry")
	}
	// The expiry edge fires once.
	clock.Tick()
	if lease.Expire() {
		t.Fatal("lease expired twice without a Touch")
	}
	// Touch re-arms.
	lease.Touch()
	if lease.tripped {
		t.Fatal("tripped true right after Touch")
	}
	for i := 0; i < 4; i++ {
		clock.Tick()
	}
	if lease.Expire() {
		t.Fatal("re-armed lease expired early")
	}
	clock.Tick()
	clock.Tick()
	if !lease.Expire() {
		t.Fatal("re-armed lease did not expire after its duration")
	}
}

func TestLeaseRejectsBadDuration(t *testing.T) {
	if _, err := NewLease(0, nil); err == nil {
		t.Fatal("zero-duration lease accepted")
	}
}
