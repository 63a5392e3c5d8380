package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused it (0 for an
// operation's root). Times are host nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so workloads call it unconditionally and the untraced run pays
// one pointer test per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setOp stamps every later span with the operation index.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// place records a span whose duration the program reported itself (its
// obs span events carry no start time): the benchmark lays it at start
// under parent and returns its end, so sequential phases chain.
func (t *tracer) place(name string, parent int, start int64, dur time.Duration) (id int, end int64) {
	end = start + dur.Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: start, End: end})
	return len(t.spans), end
}

// startOf returns a span's start, for laying program spans inside it.
func (t *tracer) startOf(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Start
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanTotals sums duration and self time per span name, in seconds.
func spanTotals(spans []span) (total, self map[string]float64) {
	total, self = make(map[string]float64), make(map[string]float64)
	st := selfTimes(spans)
	for _, s := range spans {
		total[s.Name] += float64(s.End-s.Start) / 1e9
		self[s.Name] += float64(st[s.ID]) / 1e9
	}
	return total, self
}

// writeSpans writes the first operation's spans as JSON: the per-layer
// numbers use every span, the file is a readable sample.
func writeSpans(path string, spans []span) error {
	var kept []span
	for _, s := range spans {
		if s.Op == 0 {
			kept = append(kept, s)
		}
	}
	data, err := json.Marshal(kept)
	if err != nil {
		return err
	}
	return writeFile(path, data)
}
