package proto

import "time"

// Conn is a message-oriented connection carrying protocol frames. The one
// stream implementation is wire.Conn; faultnet wraps any Conn to inject
// deterministic failures at message granularity.
type Conn interface {
	// Send writes one message. It stamps m.V with the protocol version
	// and retains neither m nor anything m points to once it returns, so
	// the caller may overwrite the message at once: the coordinator
	// reuses one request per node and a server one reply per session.
	// Wrappers keep the property (faultnet sends its delayed message and
	// its duplicate before returning).
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
	// SetBinary switches hot-kind transmission (heartbeat, counters,
	// actuate, demand, grant) to the binary codec, or back to JSON. It is
	// transmit-side only — receivers always accept both encodings, so the
	// switch needs no in-band synchronisation — and wrappers forward it to
	// the connection they wrap.
	SetBinary(on bool)
	Close() error
}
