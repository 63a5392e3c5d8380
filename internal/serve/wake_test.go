package serve

import (
	"math"
	"testing"

	"repro/internal/obs"
)

func TestStationNextWakeAt(t *testing.T) {
	m := quietMachine(t, 2)
	st, err := NewStation(m, Config{Classes: []Class{webClass()}, Clients: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.NextWakeAt(0.5); !math.IsInf(got, 1) {
		t.Fatalf("drained station NextWakeAt = %v, want +Inf", got)
	}
	// Work in flight pins per-quantum processing.
	st.Offer(0.5, 0, 0)
	if got := st.NextWakeAt(0.5); got != 0.5 {
		t.Fatalf("backlogged station NextWakeAt = %v, want now", got)
	}
	// A trace sink pins it too, even when drained.
	rec := obs.NewFlightRecorder(8, 8)
	st2, err := NewStation(quietMachine(t, 2), Config{
		Classes: []Class{webClass()}, Clients: 1, Seed: 3, sink: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.NextWakeAt(1.0); got != 1.0 {
		t.Fatalf("sink-attached station NextWakeAt = %v, want now", got)
	}
}

func TestStationSkipQuantaKeepsEmitCadence(t *testing.T) {
	m := quietMachine(t, 1)
	st, err := NewStation(m, Config{Classes: []Class{webClass()}, Clients: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := st.quanta
	st.SkipQuanta(7)
	if st.quanta != before+7 {
		t.Fatalf("quanta = %d, want %d", st.quanta, before+7)
	}
}

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
