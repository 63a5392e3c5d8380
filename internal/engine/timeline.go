package engine

import (
	"fmt"
	"math"
)

// Handler consumes a timeline event when its due time arrives. now is the
// timeline time at dispatch (the event's due time), tag is the opaque
// value the poster attached. A handler may post new events (at or after
// now) and cancel others from inside the callback; returning a non-nil
// error aborts the enclosing AdvanceTo immediately.
type Handler interface {
	HandleEvent(now float64, tag uint64) error
}

// HandlerFunc adapts a plain function to Handler.
type HandlerFunc func(now float64, tag uint64) error

// HandleEvent implements Handler.
func (f HandlerFunc) HandleEvent(now float64, tag uint64) error { return f(now, tag) }

// EventID names a posted event for cancellation. It encodes the event's
// slot and a generation stamp, so an id kept after its event fired (or
// was cancelled) is detected as stale rather than cancelling whatever
// event happens to reuse the slot. The zero EventID is never valid.
type EventID uint64

func (id EventID) slot() uint32 { return uint32(id >> 32) }
func (id EventID) gen() uint32  { return uint32(id) }

// tev is one pending timeline event.
type tev struct {
	at  float64
	seq uint64 // global post order, the FIFO tie-break among equal times
	id  EventID
	tag uint64
	h   Handler
}

// slotRec is the slot table entry behind an EventID: the current
// generation and, while the event is queued, its heap index.
type slotRec struct {
	gen uint32
	idx int32 // heap index; -1 when the slot is free
}

// Timeline is the discrete-event scheduler at the core of the DES engine:
// a deterministic min-heap of events ordered by (due time, post order).
// Subsystems post their *next interesting time* — next scheduling pass,
// next arrival burst, next budget edge — and AdvanceTo dispatches
// everything due, in a total order that depends only on the sequence of
// Post/Cancel calls, never on map iteration or pointer values. Equal-time
// events fire in the order they were posted (stable FIFO).
//
// The steady-state dispatch path allocates nothing: fired events return
// their heap slot and slot-table entry to free lists, so a workload that
// reposts as it fires (the common recurring-timer shape) reaches a fixed
// heap capacity and stays there. Not safe for concurrent use; the
// simulation loops are single-threaded by design.
type Timeline struct {
	now   float64
	seq   uint64
	heap  []tev
	slots []slotRec
	free  []uint32
}

// NewTimeline returns an empty timeline at t = 0.
func NewTimeline() *Timeline { return &Timeline{} }

// Now returns the timeline's current time in seconds.
func (t *Timeline) Now() float64 { return t.now }

// Post schedules h to run at time at (≥ Now) with the given tag and
// returns an id usable with Cancel until the event fires.
func (t *Timeline) Post(at float64, h Handler, tag uint64) (EventID, error) {
	if h == nil {
		return 0, fmt.Errorf("engine: timeline: nil handler")
	}
	if math.IsNaN(at) || at < t.now {
		return 0, fmt.Errorf("engine: timeline: post at %v is before now %v", at, t.now)
	}
	var s uint32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.slots = append(t.slots, slotRec{idx: -1})
		s = uint32(len(t.slots) - 1)
	}
	t.seq++
	id := EventID(uint64(s)<<32 | uint64(t.slots[s].gen))
	t.heap = append(t.heap, tev{at: at, seq: t.seq, id: id, tag: tag, h: h})
	t.slots[s].idx = int32(len(t.heap) - 1)
	t.up(len(t.heap) - 1)
	return id, nil
}

// Cancel removes a pending event. It returns an error when the id is
// stale — the event already fired or was cancelled (its slot may since
// have been reused by a different event, which stays untouched).
func (t *Timeline) Cancel(id EventID) error {
	s := id.slot()
	if int(s) >= len(t.slots) || t.slots[s].gen != id.gen() || t.slots[s].idx < 0 {
		return fmt.Errorf("engine: timeline: cancel of fired, cancelled or unknown event %#x", uint64(id))
	}
	t.removeAt(int(t.slots[s].idx))
	return nil
}

// AdvanceTo moves timeline time to at, dispatching every event due ≤ at
// in (time, post-order) sequence. Events posted by handlers during the
// advance are dispatched in the same call if they fall due within it. A
// handler error aborts immediately, leaving time at the failed event.
func (t *Timeline) AdvanceTo(at float64) error {
	if math.IsNaN(at) || at < t.now {
		return fmt.Errorf("engine: timeline: advance to %v is before now %v", at, t.now)
	}
	for len(t.heap) > 0 {
		e := t.heap[0]
		if e.at > at {
			break
		}
		t.removeAt(0)
		if e.at > t.now {
			t.now = e.at
		}
		if err := e.h.HandleEvent(t.now, e.tag); err != nil {
			return err
		}
	}
	t.now = at
	return nil
}

// removeAt deletes heap entry i and returns its slot to the free list,
// bumping the slot generation so outstanding EventIDs go stale.
func (t *Timeline) removeAt(i int) {
	s := t.heap[i].id.slot()
	t.slots[s].gen++
	t.slots[s].idx = -1
	t.free = append(t.free, s)
	last := len(t.heap) - 1
	if i != last {
		t.heap[i] = t.heap[last]
		t.slots[t.heap[i].id.slot()].idx = int32(i)
	}
	t.heap = t.heap[:last]
	if i < last {
		if !t.up(i) {
			t.down(i)
		}
	}
}

// less orders the heap by due time, post order breaking ties — the
// determinism rule: equal-time events fire strictly in posting order.
func (t *Timeline) less(i, j int) bool {
	a, b := &t.heap[i], &t.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (t *Timeline) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.slots[t.heap[i].id.slot()].idx = int32(i)
	t.slots[t.heap[j].id.slot()].idx = int32(j)
}

func (t *Timeline) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !t.less(i, parent) {
			break
		}
		t.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (t *Timeline) down(i int) {
	n := len(t.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		child := l
		if r := l + 1; r < n && t.less(r, l) {
			child = r
		}
		if !t.less(child, i) {
			return
		}
		t.swap(i, child)
		i = child
	}
}

// checkHeap verifies the heap-order invariant and the slot table's
// back-pointers; the property tests call it after every mutation.
func (t *Timeline) checkHeap() error {
	for i := 1; i < len(t.heap); i++ {
		parent := (i - 1) / 2
		if t.less(i, parent) {
			return fmt.Errorf("engine: timeline: heap order violated at %d (parent %d)", i, parent)
		}
	}
	queued := 0
	for s, rec := range t.slots {
		if rec.idx < 0 {
			continue
		}
		queued++
		if int(rec.idx) >= len(t.heap) || t.heap[rec.idx].id.slot() != uint32(s) {
			return fmt.Errorf("engine: timeline: slot %d back-pointer broken", s)
		}
	}
	if queued != len(t.heap) {
		return fmt.Errorf("engine: timeline: %d live slots for %d heap entries", queued, len(t.heap))
	}
	return nil
}
