package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// recorder collects dispatched (now, tag) pairs.
type recorder struct {
	fired []struct {
		at  float64
		tag uint64
	}
}

func (r *recorder) HandleEvent(now float64, tag uint64) error {
	r.fired = append(r.fired, struct {
		at  float64
		tag uint64
	}{now, tag})
	return nil
}

func TestTimelineOrdersByTime(t *testing.T) {
	tl := NewTimeline()
	rec := &recorder{}
	for _, at := range []float64{3, 1, 2, 0.5} {
		if _, err := tl.Post(at, rec, uint64(at*10)); err != nil {
			t.Fatal(err)
		}
	}
	if next, ok := tl.NextAt(); !ok || next != 0.5 {
		t.Fatalf("NextAt = %v,%v want 0.5,true", next, ok)
	}
	if err := tl.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1, 2, 3}
	if len(rec.fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(rec.fired), len(want))
	}
	for i, w := range want {
		if rec.fired[i].at != w {
			t.Errorf("event %d fired at %v, want %v", i, rec.fired[i].at, w)
		}
	}
	if tl.Now() != 10 {
		t.Errorf("Now = %v after AdvanceTo(10)", tl.Now())
	}
	if tl.Len() != 0 {
		t.Errorf("Len = %d after draining", tl.Len())
	}
}

// TestTimelineFIFOAmongEqualTimes pins the determinism rule: events
// posted at the same due time fire strictly in posting order, across
// repeated runs.
func TestTimelineFIFOAmongEqualTimes(t *testing.T) {
	run := func() []uint64 {
		tl := NewTimeline()
		rec := &recorder{}
		// Interleave two due times so equal-time groups are non-trivial.
		for i := 0; i < 40; i++ {
			at := 1.0
			if i%3 == 0 {
				at = 2.0
			}
			if _, err := tl.Post(at, rec, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tl.AdvanceTo(2); err != nil {
			t.Fatal(err)
		}
		tags := make([]uint64, len(rec.fired))
		for i, f := range rec.fired {
			tags[i] = f.tag
		}
		return tags
	}
	first := run()
	for trial := 0; trial < 3; trial++ {
		if got := run(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("run %d order %v differs from %v", trial, got, first)
		}
	}
	// Within each due-time group, tags must ascend (posting order).
	prev1, prev2 := -1, -1
	for _, f := range first {
		if f%3 == 0 {
			if int(f) < prev2 {
				t.Fatalf("t=2 group out of posting order: %v", first)
			}
			prev2 = int(f)
		} else {
			if int(f) < prev1 {
				t.Fatalf("t=1 group out of posting order: %v", first)
			}
			prev1 = int(f)
		}
	}
}

func TestTimelineCancel(t *testing.T) {
	tl := NewTimeline()
	rec := &recorder{}
	keep, err := tl.Post(1, rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := tl.Post(2, rec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Cancel(drop); err != nil {
		t.Fatal(err)
	}
	if err := tl.Cancel(drop); err == nil {
		t.Fatal("double cancel succeeded")
	}
	if err := tl.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	if len(rec.fired) != 1 || rec.fired[0].tag != 1 {
		t.Fatalf("fired %v, want only tag 1", rec.fired)
	}
	// keep's id is stale after firing; a fresh event may reuse its slot
	// and must not be cancellable through the old id.
	if _, err := tl.Post(6, rec, 3); err != nil {
		t.Fatal(err)
	}
	if err := tl.Cancel(keep); err == nil {
		t.Fatal("stale id cancelled a reused slot")
	}
}

func TestTimelinePostValidation(t *testing.T) {
	tl := NewTimeline()
	if err := tl.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Post(4, &recorder{}, 0); err == nil {
		t.Fatal("post in the past succeeded")
	}
	if _, err := tl.Post(6, nil, 0); err == nil {
		t.Fatal("nil handler accepted")
	}
	if err := tl.AdvanceTo(4); err == nil {
		t.Fatal("advance into the past succeeded")
	}
}

// TestTimelineHandlerPostsDuringAdvance checks that events posted from a
// handler fire within the same AdvanceTo when due inside it.
func TestTimelineHandlerPostsDuringAdvance(t *testing.T) {
	tl := NewTimeline()
	rec := &recorder{}
	var chain HandlerFunc
	chain = func(now float64, tag uint64) error {
		rec.HandleEvent(now, tag)
		if tag < 3 {
			_, err := tl.Post(now+1, chain, tag+1)
			return err
		}
		return nil
	}
	if _, err := tl.Post(1, chain, 0); err != nil {
		t.Fatal(err)
	}
	if err := tl.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	if len(rec.fired) != 4 {
		t.Fatalf("chained dispatch fired %d, want 4", len(rec.fired))
	}
	for i, f := range rec.fired {
		if f.at != float64(i+1) {
			t.Errorf("chain event %d at %v, want %v", i, f.at, float64(i+1))
		}
	}
}

// TestTimelineHeapProperty drives a randomized Post/Cancel/AdvanceTo
// sequence, checking the heap-order invariant and slot back-pointers
// after every mutation, and the dispatch order against a stable-sort
// reference model.
func TestTimelineHeapProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tl := NewTimeline()
		rec := &recorder{}
		type modelEv struct {
			at  float64
			seq int
			tag uint64
		}
		var model []modelEv
		live := map[uint64]EventID{}
		seq := 0
		var dispatched []modelEv
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 6: // post
				at := tl.Now() + float64(rng.Intn(50))/10
				tag := uint64(seq)
				id, err := tl.Post(at, rec, tag)
				if err != nil {
					t.Fatalf("seed %d: post: %v", seed, err)
				}
				seq++
				model = append(model, modelEv{at: at, seq: seq, tag: tag})
				live[tag] = id
			case r < 8 && len(live) > 0: // cancel a random live event
				var tags []uint64
				for tg := range live {
					tags = append(tags, tg)
				}
				sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
				victim := tags[rng.Intn(len(tags))]
				if err := tl.Cancel(live[victim]); err != nil {
					t.Fatalf("seed %d: cancel: %v", seed, err)
				}
				delete(live, victim)
				for i, m := range model {
					if m.tag == victim {
						model = append(model[:i], model[i+1:]...)
						break
					}
				}
			default: // advance
				to := tl.Now() + float64(rng.Intn(30))/10
				if err := tl.AdvanceTo(to); err != nil {
					t.Fatalf("seed %d: advance: %v", seed, err)
				}
				// Model: stable-sort by (at, seq); everything ≤ to fires.
				sort.SliceStable(model, func(i, j int) bool {
					if model[i].at != model[j].at {
						return model[i].at < model[j].at
					}
					return model[i].seq < model[j].seq
				})
				for len(model) > 0 && model[0].at <= to {
					dispatched = append(dispatched, model[0])
					delete(live, model[0].tag)
					model = model[1:]
				}
			}
			if err := tl.checkHeap(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		if len(rec.fired) != len(dispatched) {
			t.Fatalf("seed %d: fired %d events, model %d", seed, len(rec.fired), len(dispatched))
		}
		for i := range dispatched {
			if rec.fired[i].tag != dispatched[i].tag {
				t.Fatalf("seed %d: dispatch %d fired tag %d, model tag %d", seed, i, rec.fired[i].tag, dispatched[i].tag)
			}
		}
	}
}

// FuzzTimelineOps feeds arbitrary op bytes through the same model-based
// check as the property test.
func FuzzTimelineOps(f *testing.F) {
	f.Add([]byte{0, 10, 1, 20, 200, 15, 0, 5, 100, 30})
	f.Add([]byte{0, 0, 0, 0, 200, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tl := NewTimeline()
		rec := &recorder{}
		type modelEv struct {
			at  float64
			seq int
			tag uint64
		}
		var model []modelEv
		var order []modelEv
		ids := map[uint64]EventID{}
		seq := 0
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch {
			case op < 150: // post at now + arg/10
				at := tl.Now() + float64(arg)/10
				tag := uint64(seq)
				id, err := tl.Post(at, rec, tag)
				if err != nil {
					t.Fatalf("post: %v", err)
				}
				seq++
				model = append(model, modelEv{at: at, seq: seq, tag: tag})
				ids[tag] = id
			case op < 200: // cancel tag arg (often stale — must not corrupt)
				if id, ok := ids[uint64(arg)]; ok {
					_ = tl.Cancel(id)
					delete(ids, uint64(arg))
					for k, m := range model {
						if m.tag == uint64(arg) {
							model = append(model[:k], model[k+1:]...)
							break
						}
					}
				}
			default: // advance by arg/10
				to := tl.Now() + float64(arg)/10
				if err := tl.AdvanceTo(to); err != nil {
					t.Fatalf("advance: %v", err)
				}
				sort.SliceStable(model, func(a, b int) bool {
					if model[a].at != model[b].at {
						return model[a].at < model[b].at
					}
					return model[a].seq < model[b].seq
				})
				for len(model) > 0 && model[0].at <= to {
					order = append(order, model[0])
					delete(ids, model[0].tag)
					model = model[1:]
				}
			}
			if err := tl.checkHeap(); err != nil {
				t.Fatalf("after op %d: %v", i/2, err)
			}
		}
		if len(rec.fired) != len(order) {
			t.Fatalf("fired %d, model %d", len(rec.fired), len(order))
		}
		for i := range order {
			if rec.fired[i].tag != order[i].tag {
				t.Fatalf("dispatch %d: tag %d, model %d", i, rec.fired[i].tag, order[i].tag)
			}
		}
	})
}

// reposter is the steady-state dispatch shape: every fire reposts itself
// one interval ahead.
type reposter struct {
	tl       *Timeline
	interval float64
	fired    int
}

func (r *reposter) HandleEvent(now float64, tag uint64) error {
	r.fired++
	_, err := r.tl.Post(now+r.interval, r, tag)
	return err
}

// TestTimelineDispatchZeroAlloc pins the steady-state event-dispatch
// path at 0 allocs/op: once the heap and free lists are warm, a
// fire-and-repost cycle allocates nothing.
func TestTimelineDispatchZeroAlloc(t *testing.T) {
	tl := NewTimeline()
	rep := &reposter{tl: tl, interval: 0.25}
	for i := 0; i < 64; i++ {
		if _, err := tl.Post(float64(i)*0.01, rep, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the heap, slot table and free list.
	if err := tl.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	now := tl.Now()
	allocs := testing.AllocsPerRun(200, func() {
		now += 0.25
		if err := tl.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state dispatch allocates %v allocs/op, want 0", allocs)
	}
}

func BenchmarkTimelineDispatch(b *testing.B) {
	tl := NewTimeline()
	rep := &reposter{tl: tl, interval: 0.25}
	for i := 0; i < 64; i++ {
		if _, err := tl.Post(float64(i)*0.01, rep, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := tl.AdvanceTo(10); err != nil {
		b.Fatal(err)
	}
	now := tl.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.25
		if err := tl.AdvanceTo(now); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLoopSkipTicks(t *testing.T) {
	l, err := NewLoop(0.010, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Reference loop ticked one quantum at a time.
	ref, err := NewLoop(0.010, 5)
	if err != nil {
		t.Fatal(err)
	}
	l.Tick() // ticks=1, due in 4
	ref.Tick()
	if got := l.TicksUntilDue(); got != 4 {
		t.Fatalf("TicksUntilDue = %d, want 4", got)
	}
	if err := l.SkipTicks(4); err == nil {
		t.Fatal("skip across the due edge succeeded")
	}
	if err := l.SkipTicks(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if ref.Tick() {
			t.Fatal("reference due inside skip span")
		}
	}
	if l.Now() != ref.Now() {
		t.Fatalf("skipped clock %v != ticked clock %v", l.Now(), ref.Now())
	}
	if !l.Tick() {
		t.Fatal("pass not due after skipping to the edge")
	}
	if !ref.Tick() {
		t.Fatal("reference pass not due")
	}
	if l.Now() != ref.Now() || l.Ticks() != ref.Ticks() {
		t.Fatalf("loop state (%v, %d) != reference (%v, %d)", l.Now(), l.Ticks(), ref.Now(), ref.Ticks())
	}
}
