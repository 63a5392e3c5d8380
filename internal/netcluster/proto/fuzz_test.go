package proto_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"testing"

	. "repro/internal/netcluster/proto"
)

// readerConn adapts a byte slice into the net.Conn shape wire.NewConn expects,
// so the fuzzer can feed the frame decoder arbitrary wire bytes without a
// real socket.
type readerConn struct {
	stubConn
	r *bytes.Reader
}

func (c *readerConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *readerConn) Write(p []byte) (int, error) { return len(p), nil }

// frame wraps a payload in the 4-byte big-endian length header.
func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

// FuzzRecvFrame drives the frame decoder with arbitrary wire bytes. The
// decoder must never panic or over-allocate: the length prefix is bounds
// checked against (0, MaxMessageSize] before any payload allocation, a
// short payload is a "truncated frame" error rather than a hang, and
// every successfully decoded message carries the negotiated version and
// re-encodes cleanly.
func FuzzRecvFrame(f *testing.F) {
	good, _ := json.Marshal(&Message{V: Version, Kind: KindHello, Hello: &Hello{Coordinator: "c0"}})
	f.Add(frame(good))
	f.Add(frame([]byte("{}")))
	f.Add(frame([]byte(`{"v":99,"kind":"hello"}`)))
	f.Add([]byte{0, 0, 0, 0})             // zero-length frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // 4GiB claim: must be rejected, not allocated
	f.Add([]byte{0, 0, 0, 8, '{', '}'})   // truncated payload
	f.Add(append(frame(good), frame(good)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newConn(&readerConn{r: bytes.NewReader(data)})
		for {
			m, err := c.Recv()
			if err != nil {
				return // any malformed input must surface as an error, not a panic
			}
			if m.V != Version {
				t.Fatalf("accepted version %d", m.V)
			}
			payload, err := json.Marshal(m)
			var unsupported *json.UnsupportedValueError
			if errors.As(err, &unsupported) {
				continue // a binary frame carries raw float bits; JSON has no NaN
			}
			if err != nil {
				t.Fatalf("decoded message does not re-encode: %v", err)
			}
			if len(payload) > MaxMessageSize+1024 {
				t.Fatalf("decoded message re-encodes to %d bytes, past the frame bound", len(payload))
			}
		}
	})
}
