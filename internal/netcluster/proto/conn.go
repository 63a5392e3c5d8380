package proto

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"
)

// Conn is a message-oriented connection carrying protocol frames. The TCP
// implementation below is the production transport; faultnet wraps any
// Conn to inject deterministic failures at message granularity.
type Conn interface {
	// Send writes one message. It stamps m.V with the protocol version.
	Send(m *Message) error
	// Recv reads the next message, rejecting malformed frames and version
	// mismatches.
	Recv() (*Message, error)
	// SetDeadline bounds both pending and future Send/Recv calls, like
	// net.Conn.SetDeadline. The zero time clears it, which the coordinator
	// never does: it arms a fresh deadline before every attempt's first
	// byte and nothing else reads its conns, so an expired leftover is
	// harmless and clearing it would double the timer traffic.
	SetDeadline(t time.Time) error
	Close() error
}

// BinaryCapable is implemented by connections that can switch their hot
// messages to a negotiated binary codec (the wire package); wrappers such
// as faultnet forward the call to the connection they wrap. Enabling is
// transmit-side only — receivers always accept both encodings, so the
// switch needs no in-band synchronisation.
type BinaryCapable interface {
	SetBinary(on bool)
}

// netConn frames messages over a stream connection. The encode buffer
// and read buffer persist across calls so a steady message stream
// allocates no per-frame slices (json reflection still allocates the
// decoded Message — the wire package's binary codec removes that too).
type netConn struct {
	c    net.Conn
	wbuf frameBuffer
	enc  *json.Encoder
	rbuf []byte
}

// frameBuffer accumulates one outgoing frame: 4 length bytes reserved up
// front, then the JSON payload appended by the encoder. It implements
// io.Writer over a reusable backing array.
type frameBuffer struct {
	b []byte
}

func (f *frameBuffer) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// NewConn wraps a stream connection (TCP, unix, net.Pipe) as a message
// connection.
func NewConn(c net.Conn) Conn { return &netConn{c: c} }

// Dial connects to a listening agent and returns the message connection.
func Dial(addr string, timeout time.Duration) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

func (n *netConn) Send(m *Message) error {
	m.V = Version
	n.wbuf.b = append(n.wbuf.b[:0], 0, 0, 0, 0) // length prefix, patched below
	if n.enc == nil {
		n.enc = json.NewEncoder(&n.wbuf)
	}
	if err := n.enc.Encode(m); err != nil {
		return fmt.Errorf("proto: encode %s: %w", m.Kind, err)
	}
	payload := len(n.wbuf.b) - 4
	if payload > MaxMessageSize {
		return fmt.Errorf("proto: %s message %d bytes exceeds limit %d", m.Kind, payload, MaxMessageSize)
	}
	binary.BigEndian.PutUint32(n.wbuf.b, uint32(payload))
	// One Write per frame so a concurrent writer cannot interleave
	// half-frames; the Conn contract still requires external send
	// serialisation per logical stream.
	_, err := n.c.Write(n.wbuf.b)
	return err
}

func (n *netConn) Recv() (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(n.c, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size == 0 || size > MaxMessageSize {
		return nil, fmt.Errorf("proto: frame length %d outside (0, %d]", size, MaxMessageSize)
	}
	if cap(n.rbuf) < int(size) {
		n.rbuf = make([]byte, size)
	}
	payload := n.rbuf[:size]
	if _, err := io.ReadFull(n.c, payload); err != nil {
		return nil, fmt.Errorf("proto: truncated frame: %w", err)
	}
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("proto: decode frame: %w", err)
	}
	if m.V != Version {
		return nil, fmt.Errorf("proto: version %d, want %d", m.V, Version)
	}
	return &m, nil
}

func (n *netConn) SetDeadline(t time.Time) error { return n.c.SetDeadline(t) }

func (n *netConn) Close() error { return n.c.Close() }

// Pipe returns two ends of an in-memory message connection, for tests and
// fault-injection harnesses.
func Pipe() (Conn, Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}
