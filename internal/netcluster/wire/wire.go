// Package wire is the netcluster control plane's stream connection and
// its binary codec for hot messages: heartbeats, counter polls, actuation,
// and the relay tier's demand/grant exchange. Session-establishment
// traffic — hello, capabilities, errors — stays JSON, so the handshake is
// always inspectable; a coordinator refuses a peer whose capabilities do
// not name the codec. JSON hot frames still decode (and encode, until
// SetBinary): that is the oracle scenario.runCodecDifferential compares
// the binary path against.
//
// Framing is unchanged from package proto: a 4-byte big-endian length
// prefix bounds every payload. Inside the frame the first byte
// discriminates the codec — 0xB2 never starts a JSON object, so a binary
// payload is unambiguous and both encodings can share one connection. A
// binary payload is:
//
//	offset  size  field
//	0       1     magic 0xB2
//	1       1     codec version (1)
//	2       1     kind (see the kind* constants)
//	3       1     flags (bit 0: delta counter report, bit 1: trace present)
//	4       ...   envelope: uvarint ID, f64 Now,
//	              [uvarint trace pass ID when flag set], f64 ServiceSec
//	...     ...   kind-specific payload
//
// Floats travel as raw big-endian IEEE-754 bits (math.Float64bits), so
// every value round-trips exactly — the codec must not perturb the
// scheduler's arithmetic. Unsigned counters travel as uvarints; signed
// quantities and counter deltas as zigzag varints. The node name is
// omitted: the receiver knows which connection a frame arrived on.
//
// Counter reports are delta-encoded when safe: each report carries a
// sequence number, every binary counter/demand request acks the last
// sequence its sender received, and the reporter sends varint deltas
// against its previous report only when that previous report was acked
// (otherwise a full snapshot — the rejoin and loss path). A delta frame
// names its base sequence; a receiver whose base does not match fails the
// read with ErrDeltaBase, tearing the connection down to a fresh
// handshake and a full snapshot rather than risking silent skew.
package wire

import (
	"errors"
	"sync/atomic"
)

// Magic is the first payload byte of every binary frame. JSON payloads
// start with '{' (0x7B); 0xB2 cannot begin a JSON value, so one byte
// settles the codec.
const Magic = 0xB2

// Version is the binary codec version, independent of proto.Version
// (which still stamps the decoded Message's V field).
const Version = 1

// CodecName is the capability string agents advertise and coordinators
// require.
const CodecName = "bin1"

// Binary kind bytes, one per hot message kind. Kinds without a byte here
// (hello, capabilities, error) are JSON-only by design.
const (
	kindHeartbeat      = 1
	kindHeartbeatAck   = 2
	kindCounterRequest = 3
	kindCounterReport  = 4
	kindActuate        = 5
	kindActuateAck     = 6
	kindDemandRequest  = 7
	kindDemandReport   = 8
	kindGrant          = 9
	kindGrantAck       = 10
)

// Envelope flag bits.
const (
	// flagDelta marks a counter report encoded as deltas against the
	// sender's previous (acked) report.
	flagDelta = 1 << 0
	// flagTrace marks an envelope carrying a trace pass ID.
	flagTrace = 1 << 1
)

// Typed decode errors. Transport code treats any of them as a broken
// connection; tests and the fuzzer assert malformed input surfaces as one
// of these rather than a panic.
var (
	// ErrBadMagic reports a payload handed to the binary decoder that
	// does not start with Magic.
	ErrBadMagic = errors.New("wire: payload does not start with binary magic")
	// ErrBadVersion reports a binary frame with an unknown codec version.
	ErrBadVersion = errors.New("wire: unsupported binary codec version")
	// ErrBadKind reports a binary frame with an unknown kind byte.
	ErrBadKind = errors.New("wire: unknown binary message kind")
	// ErrTruncated reports a payload that ends mid-field.
	ErrTruncated = errors.New("wire: truncated binary payload")
	// ErrTooLarge reports a frame whose length prefix exceeds
	// proto.MaxMessageSize (shared with the JSON path).
	ErrTooLarge = errors.New("wire: frame exceeds message size limit")
	// ErrCorrupt reports a structurally invalid payload: a varint
	// overflow, an element count exceeding the remaining bytes, trailing
	// garbage, or a field value outside its domain.
	ErrCorrupt = errors.New("wire: corrupt binary payload")
	// ErrDeltaBase reports a delta counter report whose base sequence is
	// not the receiver's current base — the connection must be torn down
	// so the reporter falls back to a full snapshot.
	ErrDeltaBase = errors.New("wire: delta report base mismatch")
)

// Stats counts codec work across every connection sharing the struct
// (atomically — connections run on independent goroutines). The
// coordinator emits them as pass-phase telemetry; bench/ reports them per
// round as wire.encode_ms_per_round, wire.decode_ms_per_round and
// wire.bytes_per_round.
type Stats struct {
	BinFramesOut  atomic.Uint64
	BinFramesIn   atomic.Uint64
	JSONFramesOut atomic.Uint64
	JSONFramesIn  atomic.Uint64
	BytesOut      atomic.Uint64
	BytesIn       atomic.Uint64
	EncodeNanos   atomic.Uint64
	DecodeNanos   atomic.Uint64
	FullOut       atomic.Uint64
	DeltaOut      atomic.Uint64
	FullIn        atomic.Uint64
	DeltaIn       atomic.Uint64
}

// StatsSnapshot is a plain copy of Stats for reports.
type StatsSnapshot struct {
	BinFramesOut  uint64 `json:"bin_frames_out"`
	BinFramesIn   uint64 `json:"bin_frames_in"`
	JSONFramesOut uint64 `json:"json_frames_out"`
	JSONFramesIn  uint64 `json:"json_frames_in"`
	BytesOut      uint64 `json:"bytes_out"`
	BytesIn       uint64 `json:"bytes_in"`
	EncodeNanos   uint64 `json:"encode_nanos"`
	DecodeNanos   uint64 `json:"decode_nanos"`
	FullOut       uint64 `json:"full_reports_out"`
	DeltaOut      uint64 `json:"delta_reports_out"`
	FullIn        uint64 `json:"full_reports_in"`
	DeltaIn       uint64 `json:"delta_reports_in"`
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	return StatsSnapshot{
		BinFramesOut:  s.BinFramesOut.Load(),
		BinFramesIn:   s.BinFramesIn.Load(),
		JSONFramesOut: s.JSONFramesOut.Load(),
		JSONFramesIn:  s.JSONFramesIn.Load(),
		BytesOut:      s.BytesOut.Load(),
		BytesIn:       s.BytesIn.Load(),
		EncodeNanos:   s.EncodeNanos.Load(),
		DecodeNanos:   s.DecodeNanos.Load(),
		FullOut:       s.FullOut.Load(),
		DeltaOut:      s.DeltaOut.Load(),
		FullIn:        s.FullIn.Load(),
		DeltaIn:       s.DeltaIn.Load(),
	}
}

// Negotiate reports whether the peer's advertised codec list names this
// codec. Order does not matter; "json" is always implied.
func Negotiate(codecs []string) bool {
	for _, c := range codecs {
		if c == CodecName {
			return true
		}
	}
	return false
}
