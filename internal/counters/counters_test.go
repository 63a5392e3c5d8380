package counters

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestSampleSub(t *testing.T) {
	prev := Sample{Time: 1.0, Instructions: 100, Cycles: 200, L2Refs: 10, L3Refs: 5, MemRefs: 2}
	cur := Sample{Time: 1.5, Instructions: 300, Cycles: 600, L2Refs: 25, L3Refs: 9, MemRefs: 4, HaltedCycles: 7}
	d, err := cur.Sub(prev)
	if err != nil {
		t.Fatal(err)
	}
	if d.Window != 0.5 || d.Instructions != 200 || d.Cycles != 400 ||
		d.L2Refs != 15 || d.L3Refs != 4 || d.MemRefs != 2 || d.HaltedCycles != 7 {
		t.Errorf("delta = %+v", d)
	}
}

func TestSampleSubErrors(t *testing.T) {
	prev := Sample{Time: 2.0, Instructions: 100}
	if _, err := (Sample{Time: 1.0}).Sub(prev); err == nil {
		t.Error("out-of-order samples accepted")
	}
	if _, err := (Sample{Time: 3.0, Instructions: 50}).Sub(prev); err == nil {
		t.Error("backwards counter accepted")
	}
}

// TestSampleSubErrorText pins each backwards counter's message, and that
// with several backwards the first in field order is named.
func TestSampleSubErrorText(t *testing.T) {
	prev := Sample{Time: 1, Instructions: 9, Cycles: 9, HaltedCycles: 9, L2Refs: 9, L3Refs: 9, MemRefs: 9}
	for _, c := range []struct {
		set  func(*Sample)
		want string
	}{
		{func(s *Sample) { s.Time = 0.5 }, "counters: samples out of order (0.5 < 1)"},
		{func(s *Sample) { s.Instructions = 3 }, "counters: instructions counter ran backwards (3 < 9)"},
		{func(s *Sample) { s.Cycles = 3 }, "counters: cycles counter ran backwards (3 < 9)"},
		{func(s *Sample) { s.HaltedCycles = 3 }, "counters: halted counter ran backwards (3 < 9)"},
		{func(s *Sample) { s.L2Refs = 3 }, "counters: l2 counter ran backwards (3 < 9)"},
		{func(s *Sample) { s.L3Refs = 3 }, "counters: l3 counter ran backwards (3 < 9)"},
		{func(s *Sample) { s.MemRefs = 3 }, "counters: mem counter ran backwards (3 < 9)"},
		{func(s *Sample) { s.MemRefs, s.Cycles = 1, 2 }, "counters: cycles counter ran backwards (2 < 9)"},
	} {
		cur := prev
		cur.Time = 2
		c.set(&cur)
		if _, err := cur.Sub(prev); err == nil || err.Error() != c.want {
			t.Errorf("got %v, want %q", err, c.want)
		}
	}
}

func TestDeltaAdd(t *testing.T) {
	a := Delta{Window: 0.01, Instructions: 10, Cycles: 20, L2Refs: 1}
	b := Delta{Window: 0.01, Instructions: 30, Cycles: 40, MemRefs: 2}
	sum := a.Add(b)
	if sum.Window != 0.02 || sum.Instructions != 40 || sum.Cycles != 60 ||
		sum.L2Refs != 1 || sum.MemRefs != 2 {
		t.Errorf("sum = %+v", sum)
	}
}

func TestDeltaDerivedMetrics(t *testing.T) {
	d := Delta{Window: 0.01, Instructions: 1000, Cycles: 2000, L2Refs: 100, L3Refs: 10, MemRefs: 5}
	if got := d.IPC(); got != 0.5 {
		t.Errorf("IPC = %v, want 0.5", got)
	}
	if got := d.L2PerInstr(); got != 0.1 {
		t.Errorf("L2PerInstr = %v", got)
	}
	if got := d.L3PerInstr(); got != 0.01 {
		t.Errorf("L3PerInstr = %v", got)
	}
	if got := d.MemPerInstr(); got != 0.005 {
		t.Errorf("MemPerInstr = %v", got)
	}
	if got := d.ObservedFrequencyHz(); got != 200000 {
		t.Errorf("ObservedFrequencyHz = %v, want 2e5", got)
	}
}

func TestDeltaZeroGuards(t *testing.T) {
	var d Delta
	if d.IPC() != 0 || d.L2PerInstr() != 0 || d.ObservedFrequencyHz() != 0 {
		t.Error("zero delta should produce zero metrics, not NaN")
	}
}

func TestDeltaValidate(t *testing.T) {
	if err := (Delta{Window: 0.01, Instructions: 100, Cycles: 100}).Validate(); err != nil {
		t.Errorf("good delta rejected: %v", err)
	}
	if err := (Delta{Window: -1}).Validate(); err == nil {
		t.Error("negative window accepted")
	}
	if err := (Delta{Instructions: 100, Cycles: 1}).Validate(); err == nil {
		t.Error("IPC=100 accepted")
	}
}

func TestSubThenAddRoundTrip(t *testing.T) {
	err := quick.Check(func(i1, c1, i2, c2 uint32) bool {
		a := Sample{Time: 0, Instructions: uint64(i1), Cycles: uint64(c1)}
		b := Sample{Time: 1, Instructions: uint64(i1) + uint64(i2), Cycles: uint64(c1) + uint64(c2)}
		d, err := b.Sub(a)
		if err != nil {
			return false
		}
		return d.Instructions == uint64(i2) && d.Cycles == uint64(c2) && d.Window == 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestHistoryRing(t *testing.T) {
	h := NewHistory(3)
	if h.Len() != 0 {
		t.Errorf("fresh Len = %d", h.Len())
	}
	for i := 1; i <= 5; i++ {
		h.Push(Delta{Instructions: uint64(i)})
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d, want 3", h.Len())
	}
	// Newest first: 5, 4, 3.
	for i, want := range []uint64{5, 4, 3} {
		if got := h.Last(i).Instructions; got != want {
			t.Errorf("Last(%d) = %d, want %d", i, got, want)
		}
	}
	if sum := h.SumLast(2); sum.Instructions != 9 {
		t.Errorf("SumLast(2) = %d, want 9", sum.Instructions)
	}
	// Requesting more than stored aggregates what exists.
	if sum := h.SumLast(10); sum.Instructions != 12 {
		t.Errorf("SumLast(10) = %d, want 12", sum.Instructions)
	}
}

func TestHistoryLastPanicsOutOfRange(t *testing.T) {
	h := NewHistory(2)
	h.Push(Delta{})
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	h.Last(1)
}

func TestNewHistoryPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewHistory(0)
}

// fakeReader is a deterministic Reader that advances counters linearly per
// read.
type fakeReader struct {
	n     int
	reads int
	fail  bool
}

func (f *fakeReader) NumCPUs() int { return f.n }

func (f *fakeReader) ReadCounters(cpu int) (Sample, error) {
	if f.fail {
		return Sample{}, fmt.Errorf("injected failure")
	}
	f.reads++
	k := uint64(f.reads)
	return Sample{
		Time:         float64(f.reads) * 0.01,
		Instructions: k * 1000 * uint64(cpu+1),
		Cycles:       k * 2000,
		L2Refs:       k * 10,
	}, nil
}

func TestSamplerCollect(t *testing.T) {
	r := &fakeReader{n: 2}
	s, err := NewSampler(r, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.history) != 2 {
		t.Errorf("sampling %d CPUs, want 2", len(s.history))
	}
	// First collect primes only.
	if err := s.Collect(); err != nil {
		t.Fatal(err)
	}
	if s.History(0).Len() != 0 {
		t.Error("first collect should record no delta")
	}
	if err := s.Collect(); err != nil {
		t.Fatal(err)
	}
	if s.History(0).Len() != 1 || s.History(1).Len() != 1 {
		t.Error("second collect should record one delta per CPU")
	}
	d := s.History(1).Last(0)
	if d.Instructions == 0 || d.Cycles == 0 {
		t.Errorf("delta = %+v", d)
	}
	// Aggregate across several windows.
	for i := 0; i < 5; i++ {
		if err := s.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	agg := s.WindowAggregate(0, 3)
	if agg.Window <= 0 || agg.Instructions == 0 {
		t.Errorf("aggregate = %+v", agg)
	}
}

func TestSamplerPropagatesReadErrors(t *testing.T) {
	r := &fakeReader{n: 1, fail: true}
	s, err := NewSampler(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(); err == nil {
		t.Error("want read error propagated")
	}
}

func TestNewSamplerValidation(t *testing.T) {
	if _, err := NewSampler(nil, 4); err == nil {
		t.Error("nil reader accepted")
	}
	if _, err := NewSampler(&fakeReader{n: 0}, 4); err == nil {
		t.Error("0-CPU reader accepted")
	}
	if _, err := NewSampler(&fakeReader{n: 1}, 0); err == nil {
		t.Error("zero history accepted")
	}
}

func TestDeltaIPCStaysFiniteProperty(t *testing.T) {
	err := quick.Check(func(instr, cyc uint32) bool {
		d := Delta{Instructions: uint64(instr), Cycles: uint64(cyc)}
		ipc := d.IPC()
		return !math.IsNaN(ipc) && !math.IsInf(ipc, 0)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
