package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/netcluster/proto"
)

// Options configures a Conn.
type Options struct {
	// Mirror makes the conn follow its peer: binary transmission turns on
	// (and stays on) as soon as a binary frame is received. This is the
	// server/agent side — the coordinator decides the codec, the agent
	// answers in kind, and no explicit enable message is needed.
	Mirror bool
	// Stats, when non-nil, accumulates codec counters across every conn
	// sharing it.
	Stats *Stats
}

// Conn is a proto.Conn speaking both JSON and the binary codec over one
// stream. Received frames self-describe (binary payloads start with
// Magic); transmission is JSON until SetBinary(true) — or, in Mirror
// mode, until the peer sends binary first. Hot kinds then go binary;
// hello, capabilities and errors stay JSON always.
//
// It is the only stream implementation of proto.Conn. Send and Recv each
// require external serialisation per logical stream. Recv returns a conn-owned Message for
// binary frames: it and everything it points to are valid only until the
// next Recv on the same Conn.
type Conn struct {
	c net.Conn
	// br is the only reader of c: Recv takes a frame's header and payload
	// from it, so a frame that arrived whole costs one transport read.
	br   *bufio.Reader
	opts Options

	binary bool

	wbuf frameBuffer
	enc  *json.Encoder
	hdr  [4]byte
	rbuf []byte

	dec message
	ds  deltaSendState
	rs  deltaRecvState
}

// frameBuffer accumulates one outgoing frame behind the 4-byte length
// prefix, reusing its backing array across messages.
type frameBuffer struct {
	b []byte
}

func (f *frameBuffer) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// NewConn wraps a stream connection (TCP, unix, net.Pipe) as a
// proto.Conn.
func NewConn(c net.Conn, opts Options) *Conn {
	return &Conn{c: c, br: bufio.NewReaderSize(c, recvBufSize), opts: opts}
}

// recvBufSize holds any hot frame of a round with room to spare (a 16-CPU
// full counter report is under 1 KiB); bufio reads a larger payload's
// remainder straight into the frame buffer.
const recvBufSize = 4096

// Dial connects to a listening agent and returns its message connection
// (transmitting JSON until SetBinary). It is the transport under both the
// coordinator's default dialer and faultnet's.
func Dial(addr string, timeout time.Duration) (proto.Conn, error) {
	return DialStats(addr, timeout, nil)
}

// DialStats is Dial with shared codec counters.
func DialStats(addr string, timeout time.Duration, st *Stats) (proto.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewConn(c, Options{Stats: st}), nil
}

// SetBinary switches hot-kind transmission to the binary codec (or back
// to JSON). The receive side always accepts both, so the switch needs no
// synchronisation with the peer.
func (c *Conn) SetBinary(on bool) { c.binary = on }

// Send writes one message, stamping the protocol version. Hot kinds use
// the binary codec when enabled; everything else is length-prefixed JSON.
func (c *Conn) Send(m *proto.Message) error {
	m.V = proto.Version
	c.wbuf.b = append(c.wbuf.b[:0], 0, 0, 0, 0) // length prefix, patched below
	st := c.opts.Stats
	if c.binary {
		var start time.Time
		if st != nil {
			start = time.Now()
		}
		out, ok, err := appendMessage(c.wbuf.b, m, &c.ds, c.rs.seq)
		if err != nil {
			return err
		}
		if ok {
			c.wbuf.b = out
			if st != nil {
				st.EncodeNanos.Add(uint64(time.Since(start)))
				st.BinFramesOut.Add(1)
				if m.Kind == proto.KindCounterReport {
					// out[7]: flags byte behind 4 length + magic/version/kind.
					if out[7]&flagDelta != 0 {
						st.DeltaOut.Add(1)
					} else {
						st.FullOut.Add(1)
					}
				}
			}
			return c.writeFrame()
		}
	}
	if c.enc == nil {
		c.enc = json.NewEncoder(&c.wbuf)
	}
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("wire: encode %s: %w", m.Kind, err)
	}
	if st != nil {
		st.JSONFramesOut.Add(1)
	}
	return c.writeFrame()
}

// writeFrame patches the length prefix into wbuf and writes the frame in
// one call, so a concurrent reader never sees a split frame boundary.
func (c *Conn) writeFrame() error {
	payload := len(c.wbuf.b) - 4
	if payload > proto.MaxMessageSize {
		return fmt.Errorf("%w: %d byte payload", ErrTooLarge, payload)
	}
	binary.BigEndian.PutUint32(c.wbuf.b, uint32(payload))
	n, err := c.c.Write(c.wbuf.b)
	if st := c.opts.Stats; st != nil {
		st.BytesOut.Add(uint64(n))
	}
	return err
}

// Recv reads the next message. Binary frames decode into a conn-owned
// Message valid until the next Recv; JSON frames decode into a fresh one.
//
// It reads through the conn's buffered reader, never the transport itself:
// the peer writes a frame in one Write, so header and payload arrive in one
// transport read (one syscall on TCP, one rendezvous with the writer on
// net.Pipe) where reading them apart cost two. The length is checked
// before any payload byte is waited for.
func (c *Conn) Recv() (*proto.Message, error) {
	// The header buffer is a conn field: a stack array would escape
	// through the io.ReadFull interface call and cost an allocation per
	// frame, which the steady-state zero-alloc gate forbids.
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(c.hdr[:])
	if size == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrTruncated)
	}
	if size > proto.MaxMessageSize {
		return nil, fmt.Errorf("%w: frame length %d", ErrTooLarge, size)
	}
	if cap(c.rbuf) < int(size) {
		c.rbuf = make([]byte, size)
	}
	payload := c.rbuf[:size]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	st := c.opts.Stats
	if st != nil {
		st.BytesIn.Add(uint64(size) + 4)
	}
	if payload[0] == Magic {
		var start time.Time
		if st != nil {
			start = time.Now()
		}
		delta := len(payload) >= 4 && payload[3]&flagDelta != 0
		m, err := decodeBinary(payload, &c.dec, &c.ds, &c.rs)
		if err != nil {
			return nil, err
		}
		if st != nil {
			st.DecodeNanos.Add(uint64(time.Since(start)))
			st.BinFramesIn.Add(1)
			if m.Kind == proto.KindCounterReport {
				if delta {
					st.DeltaIn.Add(1)
				} else {
					st.FullIn.Add(1)
				}
			}
		}
		if c.opts.Mirror {
			c.binary = true
		}
		return m, nil
	}
	var m proto.Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("wire: decode frame: %w", err)
	}
	if m.V != proto.Version {
		return nil, fmt.Errorf("wire: version %d, want %d", m.V, proto.Version)
	}
	if st != nil {
		st.JSONFramesIn.Add(1)
	}
	// A JSON request carries no delta ack: the peer cannot confirm our
	// last report, so the next one must be a full snapshot.
	if m.Kind == proto.KindCounterRequest || m.Kind == proto.KindDemandRequest {
		c.ds.ackSeq = 0
	}
	return &m, nil
}

// SetDeadline bounds pending and future Send/Recv calls.
func (c *Conn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

var _ proto.Conn = (*Conn)(nil)
