package serve

import (
	"math"
	"testing"
)

func TestFeederNextAt(t *testing.T) {
	var empty Feeder
	if got := empty.NextAt(); !math.IsInf(got, 1) {
		t.Fatalf("empty feeder NextAt = %v, want +Inf", got)
	}
	spec, err := ParseArrivalSpec("poisson:50")
	if err != nil {
		t.Fatal(err)
	}
	var f Feeder
	for cl := 0; cl < 2; cl++ {
		stm, err := spec.NewStream(200 + int64(cl))
		if err != nil {
			t.Fatal(err)
		}
		f.Add(0, cl, stm)
	}
	next := f.NextAt()
	if math.IsInf(next, 1) || next <= 0 {
		t.Fatalf("NextAt = %v, want a finite future arrival", next)
	}
	// It must be the minimum over streams and advance once consumed.
	m := quietMachine(t, 1)
	st, err := NewStation(m, Config{Classes: []Class{webClass()}, Clients: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	f.DeliverUpTo(next, st)
	if got := f.NextAt(); got <= next {
		t.Fatalf("NextAt after delivery = %v, want > %v", got, next)
	}
}
