package workload

import (
	"fmt"
	"testing"
)

// scanMix is the mix before finished jobs left it: every job ever admitted
// stays in the rotation and each pick scans past the finished ones. Mix
// must pick the same cursor, in the same state, on every call.
type scanMix struct {
	jobs []*Cursor
	next int
}

func (m *scanMix) add(p Program) error {
	c, err := NewCursor(p)
	if err != nil {
		return err
	}
	m.jobs = append(m.jobs, c)
	return nil
}

func (m *scanMix) done() bool {
	for _, j := range m.jobs {
		if !j.Done() {
			return false
		}
	}
	return true
}

func (m *scanMix) pickNext() *Cursor {
	n := len(m.jobs)
	for i := 0; i < n; i++ {
		idx := (m.next + i) % n
		if !m.jobs[idx].Done() {
			m.next = (idx + 1) % n
			return m.jobs[idx]
		}
	}
	return nil
}

// mixOp is one step of a rotation script.
type mixOp struct {
	kind byte
	arg  uint64
}

const (
	opAdd    byte = iota // admit rotProgram(arg); arg 0 is an invalid program
	opPick               // PickNext, then Advance(arg) the pick
	opDone               // compare Done
	opRevive             // Rebind job arg%len to a fresh program, only before any Add
)

// rotProgram is a small two-phase program whose second phase loops, so a
// script sees phase crossings, loop wraps and completion.
func rotProgram(seq int, arg uint64) Program {
	if arg == 0 {
		return Program{Name: fmt.Sprintf("bad%d", seq)}
	}
	return Program{
		Name: fmt.Sprintf("j%d", seq),
		Phases: []Phase{
			{Name: "a", Alpha: 1, Instructions: arg},
			{Name: "b", Alpha: 1, Instructions: 1 + arg%3},
		},
		LoopFrom: 1,
		Loops:    int(arg % 3),
	}
}

// runRotation drives a Mix and the scanning oracle through the same script
// from the same initial programs and fails at the first pick or Done that
// differs.
func runRotation(t *testing.T, initial []uint64, ops []mixOp) {
	t.Helper()
	var progs []Program
	for i, a := range initial {
		progs = append(progs, rotProgram(i, a))
	}
	got, err := NewMix(progs...)
	if err != nil {
		t.Fatal(err)
	}
	want := &scanMix{}
	for _, p := range progs {
		if err := want.add(p); err != nil {
			t.Fatal(err)
		}
	}
	seq, added := len(progs), false
	for i, op := range ops {
		switch op.kind {
		case opAdd:
			p := rotProgram(seq, op.arg)
			seq++
			gotErr, wantErr := got.Add(p), want.add(p)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("op %d: Add(%s) = %v, oracle %v", i, p.Name, gotErr, wantErr)
			}
			added = added || gotErr == nil
		case opPick:
			g, w := got.PickNext(), want.pickNext()
			if (g == nil) != (w == nil) {
				t.Fatalf("op %d: PickNext = %v, oracle %v", i, g, w)
			}
			if g == nil {
				continue
			}
			if g.prog.Name != w.prog.Name || g.phaseIdx != w.phaseIdx || g.executed != w.executed || g.loopsLeft != w.loopsLeft {
				t.Fatalf("op %d: PickNext = %s phase %d executed %d loops %d, oracle %s phase %d executed %d loops %d",
					i, g.prog.Name, g.phaseIdx, g.executed, g.loopsLeft, w.prog.Name, w.phaseIdx, w.executed, w.loopsLeft)
			}
			g.Advance(op.arg)
			w.Advance(op.arg)
		case opDone:
			if g, w := got.Done(), want.done(); g != w {
				t.Fatalf("op %d: Done = %v, oracle %v", i, g, w)
			}
		case opRevive:
			// Reviving a cursor held across an Add is outside Jobs()'s
			// contract; without one both mixes hold the same jobs.
			if added {
				continue
			}
			p := rotProgram(seq, 1+op.arg%5)
			seq++
			j := int(op.arg % uint64(len(want.jobs)))
			got.Jobs()[j].Rebind(p)
			want.jobs[j].Rebind(p)
		}
	}
	if g, w := got.Done(), want.done(); g != w {
		t.Fatalf("end: Done = %v, oracle %v", g, w)
	}
}

// decodeRotation turns fuzz bytes into initial programs and a script: the
// first byte sizes the initial mix, each later byte is one op (low two bits
// the kind, the rest its argument).
func decodeRotation(data []byte) ([]uint64, []mixOp) {
	if len(data) == 0 {
		return []uint64{1}, nil
	}
	var initial []uint64
	for i := 0; i <= int(data[0]%3); i++ {
		initial = append(initial, 1+uint64(data[0]>>2+byte(3*i))%7)
	}
	var ops []mixOp
	for _, b := range data[1:] {
		ops = append(ops, mixOp{kind: b % 4, arg: uint64(b>>2) % 8})
	}
	return initial, ops
}

func TestMixRotationMatchesScan(t *testing.T) {
	pick := func(k uint64) mixOp { return mixOp{opPick, k} }
	add := func(k uint64) mixOp { return mixOp{opAdd, k} }
	done := mixOp{opDone, 0}
	for _, tc := range []struct {
		name    string
		initial []uint64
		ops     []mixOp
	}{
		{
			// a runs, b finishes, a runs again: next points at the dead b
			// with the only live job before it. The old scan reached the
			// appended c first; a next wrapped modulo the live count would
			// pick a.
			name:    "add with every live job before next",
			initial: []uint64{7, 1},
			ops:     []mixOp{pick(1), pick(8), pick(1), add(5), pick(1), pick(1), pick(1)},
		},
		{
			name:    "add into a finished mix",
			initial: []uint64{1},
			ops:     []mixOp{pick(8), done, pick(1), add(2), done, pick(1), pick(8), done, pick(1)},
		},
		{
			name:    "add with next on a live job",
			initial: []uint64{5, 5, 1},
			ops:     []mixOp{pick(1), pick(1), pick(8), add(2), pick(1), add(3), pick(1), pick(1), pick(1), pick(1)},
		},
		{
			name:    "invalid add drops nothing observable",
			initial: []uint64{2, 1},
			ops:     []mixOp{pick(1), pick(8), add(0), pick(1), add(4), pick(1), pick(1)},
		},
		{
			// The serving station's pattern: one cursor, finished and then
			// rebound in place, never an Add. It must keep rotating.
			name:    "lone cursor revived by Rebind",
			initial: []uint64{1},
			ops: []mixOp{pick(8), done, pick(1), {opRevive, 0}, done, pick(1), pick(8), done,
				{opRevive, 3}, pick(2), pick(8), pick(1), {opRevive, 0}, pick(1)},
		},
	} {
		t.Run(tc.name, func(t *testing.T) { runRotation(t, tc.initial, tc.ops) })
	}
}

// FuzzMixRotation holds Mix to the scanning oracle on arbitrary scripts of
// arrivals, picks with progress, Done checks and in-place revivals.
func FuzzMixRotation(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x0d, 0x05, 0x14, 0x05})
	f.Add([]byte{0x02, 0x05, 0x05, 0x05, 0x0c, 0x05, 0x02, 0x10, 0x05})
	f.Add([]byte{0x01, 0x1d, 0x02, 0x03, 0x02, 0x05, 0x1d, 0x07, 0x05})
	f.Add([]byte{0x00, 0x1d, 0x1d, 0x00, 0x04, 0x05, 0x08, 0x05, 0x05, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		initial, ops := decodeRotation(data)
		runRotation(t, initial, ops)
	})
}
