package netcluster

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netcluster/proto"
)

// pipeBound is the most unread bytes one direction of a pipe holds before
// a Write blocks: one largest frame with its length prefix. The protocol
// never has more than two frames in flight on a connection (a faultnet
// duplicate), so the bound only stops a peer that never reads from
// growing the buffer without limit.
const pipeBound = proto.MaxMessageSize + 4

// pipeAddr is both ends' address. It prints "pipe", as net.Pipe's does.
var pipeAddr net.Addr = &net.UnixAddr{Name: "pipe", Net: "pipe"}

// pipeEpoch anchors the pipe clock.
var pipeEpoch = time.Now()

// pipeNow is the pipe clock, in monotonic nanoseconds since pipeEpoch:
// every deadline is stored and tested on it, and nothing else reads time.
func pipeNow() int64 { return int64(time.Since(pipeEpoch)) }

// pipeTime maps a deadline onto the pipe clock. The zero time, no
// deadline, maps to 0; an instant that lands on 0 moves one nanosecond
// earlier so it stays a deadline (already past).
func pipeTime(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	if n := int64(t.Sub(pipeEpoch)); n != 0 {
		return n
	}
	return -1
}

// expired reports whether deadline dl (0: none) has passed.
func expired(dl int64) bool { return dl != 0 && pipeNow() >= dl }

// pipeTimeout is the error an expired deadline returns, wrapped as
// net.Pipe wraps it: Timeout() is true and it is os.ErrDeadlineExceeded.
func pipeTimeout(op string) error {
	return &net.OpError{Op: op, Net: "pipe", Err: os.ErrDeadlineExceeded}
}

// pipeBuf is one direction of a pipe: what one end has written and the
// other has not yet read. cond (over mu) is broadcast on every change a
// blocked Read or Write could be waiting for.
type pipeBuf struct {
	mu      sync.Mutex
	cond    sync.Cond
	buf     []byte
	off     int  // read offset into buf; both return to 0 once drained
	rclosed bool // the reading end closed: writes fail
	wclosed bool // the writing end closed: reads drain buf, then EOF
}

// pipeEnd is one end of the in-process transport under PipeDialer. It
// behaves as a net.Pipe end in everything the control plane sees — close
// and deadline errors included — with two differences, both a socket's: a
// Write copies the frame into the peer's buffer and returns without
// waiting for the read, and it blocks only while the peer already holds
// pipeBound unread bytes.
//
// Deadlines arm no timer per call. Each end owns one timer, re-armed only
// when it is idle or the new deadline is earlier than the one it is set
// for; when it fires it re-arms itself to a later pending deadline and
// wakes every blocked call, which tests the clock itself. A coordinator
// that moves its deadline forward on every RPC therefore costs about one
// timer firing per RPC timeout, not one timer per RPC.
type pipeEnd struct {
	rx, tx   *pipeBuf     // rx is this end's to read, tx the peer's rx
	rdl, wdl atomic.Int64 // read and write deadlines on the pipe clock; 0: none

	tmu    sync.Mutex // guards the fields below and orders deadline stores
	timer  *time.Timer
	armed  int64 // the deadline timer is set for; 0: not armed
	closed bool
}

// newPipe returns the two connected ends of a buffered in-process pipe.
func newPipe() (net.Conn, net.Conn) {
	a, b := &pipeBuf{}, &pipeBuf{}
	a.cond.L, b.cond.L = &a.mu, &b.mu
	return &pipeEnd{rx: a, tx: b}, &pipeEnd{rx: b, tx: a}
}

// Read copies out what the peer has written, blocking only while nothing
// is buffered. After the peer closes, buffered bytes still arrive, then
// io.EOF.
func (p *pipeEnd) Read(b []byte) (int, error) {
	r := p.rx
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		switch {
		case r.rclosed:
			return 0, io.ErrClosedPipe
		case r.off == len(r.buf) && r.wclosed:
			return 0, io.EOF
		case expired(p.rdl.Load()):
			return 0, pipeTimeout("read")
		case r.off < len(r.buf):
			n := copy(b, r.buf[r.off:])
			r.off += n
			if r.off == len(r.buf) {
				r.buf, r.off = r.buf[:0], 0
			}
			r.cond.Broadcast() // room for a writer blocked on the bound
			return n, nil
		}
		r.cond.Wait()
	}
}

// Write appends b whole to the peer's buffer and wakes its reader. It
// blocks only while the peer holds pipeBound or more unread bytes.
func (p *pipeEnd) Write(b []byte) (int, error) {
	w := p.tx
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		switch {
		case w.wclosed, w.rclosed:
			return 0, io.ErrClosedPipe
		case expired(p.wdl.Load()):
			return 0, pipeTimeout("write")
		case len(w.buf)-w.off < pipeBound:
			w.buf = append(w.buf, b...)
			w.cond.Broadcast()
			return len(b), nil
		}
		w.cond.Wait()
	}
}

// Close unblocks every pending call on both ends, stops the timer and is
// idempotent. Local calls then fail with io.ErrClosedPipe; the peer reads
// what is buffered, then io.EOF.
func (p *pipeEnd) Close() error {
	p.tmu.Lock()
	if p.closed {
		p.tmu.Unlock()
		return nil
	}
	p.closed = true
	if p.timer != nil {
		p.timer.Stop()
	}
	p.tmu.Unlock()

	p.rx.mu.Lock()
	p.rx.rclosed, p.rx.buf = true, nil
	p.rx.cond.Broadcast()
	p.rx.mu.Unlock()
	p.tx.mu.Lock()
	p.tx.wclosed = true
	p.tx.cond.Broadcast()
	p.tx.mu.Unlock()
	return nil
}

func (p *pipeEnd) LocalAddr() net.Addr  { return pipeAddr }
func (p *pipeEnd) RemoteAddr() net.Addr { return pipeAddr }

func (p *pipeEnd) SetDeadline(t time.Time) error      { return p.setDeadline(t, true, true) }
func (p *pipeEnd) SetReadDeadline(t time.Time) error  { return p.setDeadline(t, true, false) }
func (p *pipeEnd) SetWriteDeadline(t time.Time) error { return p.setDeadline(t, false, true) }

// setDeadline stores the deadline and arms the timer only if it would
// otherwise fire too late. A deadline already past wakes blocked calls at
// once; the zero time clears the deadline and leaves the timer to fire
// into nothing.
func (p *pipeEnd) setDeadline(t time.Time, read, write bool) error {
	dl := pipeTime(t)
	p.tmu.Lock()
	if p.closed {
		p.tmu.Unlock()
		return io.ErrClosedPipe
	}
	if read {
		p.rdl.Store(dl)
	}
	if write {
		p.wdl.Store(dl)
	}
	now := pipeNow()
	if dl > now && (p.armed == 0 || dl < p.armed) {
		p.arm(dl, now)
	}
	p.tmu.Unlock()
	if dl != 0 && dl <= now {
		p.wake()
	}
	return nil
}

// arm sets the timer for deadline at; tmu is held.
func (p *pipeEnd) arm(at, now int64) {
	d := time.Duration(at - now)
	if p.timer == nil {
		p.timer = time.AfterFunc(d, p.fire)
	} else {
		p.timer.Reset(d)
	}
	p.armed = at
}

// fire is the timer: it re-arms to the earliest deadline still ahead, if
// any, and wakes every blocked call to test its own.
func (p *pipeEnd) fire() {
	p.tmu.Lock()
	p.armed = 0
	if !p.closed {
		now, next := pipeNow(), int64(0)
		for _, dl := range [2]int64{p.rdl.Load(), p.wdl.Load()} {
			if dl > now && (next == 0 || dl < next) {
				next = dl
			}
		}
		if next != 0 {
			p.arm(next, now)
		}
	}
	p.tmu.Unlock()
	p.wake()
}

// wake broadcasts both directions' conditions, so a blocked Read or
// Write re-tests its deadline.
func (p *pipeEnd) wake() {
	for _, b := range [2]*pipeBuf{p.rx, p.tx} {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}
