package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Sink receives trace events. Implementations must be safe for concurrent
// Emit calls; producers treat a nil Sink as "tracing off".
type Sink interface {
	Emit(e Event)
}

// NopSink discards every event — the explicit spelling of the nil-sink
// default for callers that want a non-nil Sink value.
type NopSink struct{}

// Emit discards the event.
func (NopSink) Emit(Event) {}

// Tee fans every event out to all the given sinks, skipping nils. It
// collapses to NopSink for an empty list and to the sink itself for a
// single one, so producers pay nothing for the indirection they don't use.
func Tee(sinks ...Sink) Sink {
	kept := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return NopSink{}
	case 1:
		return kept[0]
	}
	return kept
}

type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Buffer is an in-memory sink that retains every event, for tests and
// programmatic post-run analysis.
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (b *Buffer) Emit(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = append(b.events, e)
}

// Count returns how many events match the type and trigger; either
// selector may be empty to match everything.
func (b *Buffer) Count(typ, trigger string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, e := range b.events {
		if (typ == "" || e.Type == typ) && (trigger == "" || e.Trigger == trigger) {
			n++
		}
	}
	return n
}

// JSONLWriter is a sink that streams events to w as one JSON object per
// line. Writes are buffered; call Close to flush. The first write or
// encode error sticks and suppresses further output — simulation loops
// should not die because a trace disk filled, so the error is surfaced
// through Close instead of panicking mid-run.
type JSONLWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONLWriter wraps w; the caller retains ownership of any underlying
// file and closes it after Close.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

// Emit writes the event as one JSON line.
func (j *JSONLWriter) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(b); err != nil {
		j.err = err
		return
	}
	j.err = j.w.WriteByte('\n')
}

// Close flushes the buffer and returns the sticky error.
func (j *JSONLWriter) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}
