package proto_test

import (
	"net"
	"strings"
	"testing"
	"time"

	. "repro/internal/netcluster/proto"
)

// benchMessage is a realistic hot-path frame: an 8-CPU counter report.
func benchMessage() *Message {
	cpus := make([]CPUReport, 8)
	for i := range cpus {
		cpus[i] = CPUReport{
			WindowSec:    0.08,
			Instructions: 1_000_000 + uint64(i),
			Cycles:       2_000_000 + uint64(i),
			HaltedCycles: 100_000,
			L2Refs:       50_000,
			L3Refs:       9_000,
			MemRefs:      4_000,
		}
	}
	return &Message{
		Kind:       KindCounterReport,
		ID:         42,
		Node:       "n3",
		Now:        1.28,
		ServiceSec: 0.0001,
		Trace:      &TraceContext{PassID: 17},
		CounterReport: &CounterReport{
			CPUs:      cpus,
			CPUPowerW: 61.5,
		},
	}
}

// bufConn is the transport under the buffer-reuse tests: it remembers the
// last frame written and which backing array it came from, and serves
// reads from a repeating frame, remembering where the last read that
// bypassed the conn's 4 KiB read buffer landed.
type bufConn struct {
	stubConn
	frame []byte
	off   int

	written  []byte
	writePtr *byte
	writeCap int
	readPtr  *byte
}

func (d *bufConn) Write(p []byte) (int, error) {
	d.written = append(d.written[:0], p...)
	d.writePtr, d.writeCap = &p[0], cap(p)
	return len(p), nil
}

func (d *bufConn) Read(p []byte) (int, error) {
	if len(p) > 4096 {
		d.readPtr = &p[0]
	}
	if d.off == len(d.frame) {
		d.off = 0
	}
	n := copy(p, d.frame[d.off:])
	d.off += n
	return n, nil
}

// stubConn is the part of net.Conn the fake transports do not care about.
type stubConn struct{}

func (stubConn) Close() error                     { return nil }
func (stubConn) LocalAddr() net.Addr              { return nil }
func (stubConn) RemoteAddr() net.Addr             { return nil }
func (stubConn) SetDeadline(time.Time) error      { return nil }
func (stubConn) SetReadDeadline(time.Time) error  { return nil }
func (stubConn) SetWriteDeadline(time.Time) error { return nil }

// frameFor renders one message through a real conn to use as Recv input.
func frameFor(tb testing.TB, m *Message) []byte {
	tb.Helper()
	var sink bufConn
	if err := newConn(&sink).Send(m); err != nil {
		tb.Fatalf("Send: %v", err)
	}
	return sink.written
}

// TestConnBufferReuse pins per-conn buffer reuse: after the first frame,
// Send hands the transport the same backing array every time, and Recv
// reads a frame too big for its read buffer into the same frame buffer
// every time, rather than allocating fresh slices per message.
func TestConnBufferReuse(t *testing.T) {
	m := benchMessage()

	var out bufConn
	sender := newConn(&out)
	if err := sender.Send(m); err != nil {
		t.Fatalf("Send: %v", err)
	}
	wptr, wcap := out.writePtr, out.writeCap
	for i := 0; i < 50; i++ {
		if err := sender.Send(m); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if out.writeCap != wcap || out.writePtr != wptr {
		t.Fatalf("send buffer reallocated across same-size frames: cap %d → %d", wcap, out.writeCap)
	}

	// 16 KiB of payload: the tail past the read buffer goes from the
	// transport straight into the conn's frame buffer, where the fake
	// transport can see which array it is.
	big := benchMessage()
	big.Error = strings.Repeat("x", 16<<10)
	in := bufConn{frame: frameFor(t, big)}
	receiver := newConn(&in)
	if _, err := receiver.Recv(); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	rptr := in.readPtr
	if rptr == nil {
		t.Fatal("no read bypassed the read buffer; the frame is too small to observe the frame buffer")
	}
	for i := 0; i < 50; i++ {
		got, err := receiver.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if got.Kind != KindCounterReport || got.ID != 42 || len(got.CounterReport.CPUs) != 8 {
			t.Fatalf("Recv %d decoded %+v", i, got)
		}
	}
	if in.readPtr != rptr {
		t.Fatal("recv buffer reallocated across same-size frames")
	}
}

// TestConnSendAllocBound guards against reintroducing per-frame slice
// builds on the JSON send path. JSON reflection still allocates per
// encode, so the bound is loose — a make(4+len(payload)) for a ~700-byte
// report would show up as an extra alloc.
func TestConnSendAllocBound(t *testing.T) {
	m := benchMessage()
	c := newConn(&bufConn{})
	// Warm the buffer and the encoder's internal pool.
	for i := 0; i < 10; i++ {
		if err := c.Send(m); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(m); err != nil {
			t.Fatalf("Send: %v", err)
		}
	})
	if allocs > 8 {
		t.Fatalf("Send allocates %.1f objects/op, want ≤ 8 (per-frame buffer reuse regressed?)", allocs)
	}
}
