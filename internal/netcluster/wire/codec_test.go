package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/netcluster/proto"
)

// memEnd is one direction of a deterministic in-memory duplex: writes
// land in out, reads drain in. Single-goroutine alternating send/recv
// needs no locking and, after warm-up, no allocation.
type memEnd struct {
	in  *bytes.Buffer
	out *bytes.Buffer
}

func (m *memEnd) Read(p []byte) (int, error)       { return m.in.Read(p) }
func (m *memEnd) Write(p []byte) (int, error)      { return m.out.Write(p) }
func (m *memEnd) Close() error                     { return nil }
func (m *memEnd) LocalAddr() net.Addr              { return nil }
func (m *memEnd) RemoteAddr() net.Addr             { return nil }
func (m *memEnd) SetDeadline(time.Time) error      { return nil }
func (m *memEnd) SetReadDeadline(time.Time) error  { return nil }
func (m *memEnd) SetWriteDeadline(time.Time) error { return nil }

// memPair returns two connected in-memory ends.
func memPair() (net.Conn, net.Conn) {
	ab := &bytes.Buffer{}
	ba := &bytes.Buffer{}
	return &memEnd{in: ba, out: ab}, &memEnd{in: ab, out: ba}
}

func sampleReport(nCPU int, seed int64) *proto.CounterReport {
	rng := rand.New(rand.NewSource(seed))
	cpus := make([]proto.CPUReport, nCPU)
	for i := range cpus {
		cpus[i] = proto.CPUReport{
			Idle:         rng.Intn(4) == 0,
			WindowSec:    0.08 + rng.Float64()*1e-6,
			Instructions: uint64(rng.Int63n(1 << 40)),
			Cycles:       uint64(rng.Int63n(1 << 40)),
			HaltedCycles: uint64(rng.Int63n(1 << 30)),
			L2Refs:       uint64(rng.Int63n(1 << 28)),
			L3Refs:       uint64(rng.Int63n(1 << 24)),
			MemRefs:      uint64(rng.Int63n(1 << 22)),
		}
	}
	return &proto.CounterReport{CPUs: cpus, CPUPowerW: 61.5 + rng.Float64(), SystemPowerW: 120.25}
}

func hotMessages() []*proto.Message {
	return []*proto.Message{
		{Kind: proto.KindHeartbeat, ID: 1, Trace: &proto.TraceContext{PassID: 3}},
		{Kind: proto.KindHeartbeatAck, ID: 1, Now: 2.5, ServiceSec: 1e-5},
		{Kind: proto.KindCounterRequest, ID: 2, Trace: &proto.TraceContext{PassID: 3},
			CounterRequest: &proto.CounterRequest{AdvanceQuanta: 10, WindowQuanta: 10}},
		{Kind: proto.KindCounterReport, ID: 2, Now: 2.58, ServiceSec: 3e-4,
			CounterReport: sampleReport(4, 7)},
		{Kind: proto.KindActuate, ID: 3, Trace: &proto.TraceContext{PassID: 3},
			Actuate: &proto.Actuate{FreqsMHz: []float64{600, 800, 1000, 600}}},
		{Kind: proto.KindActuateAck, ID: 3, Now: 2.59, ServiceSec: 2e-5,
			ActuateAck: &proto.ActuateAck{AppliedMHz: []float64{600, 800, 1000, 600}}},
		{Kind: proto.KindDemandRequest, ID: 4, Trace: &proto.TraceContext{PassID: 4},
			CounterRequest: &proto.CounterRequest{AdvanceQuanta: 10, WindowQuanta: 10}},
		{Kind: proto.KindDemandReport, ID: 4, Now: 2.66, ServiceSec: 1e-3,
			DemandReport: &proto.DemandReport{
				Points: []proto.DemandPoint{
					{PowerW: 80.5, Loss: 0},
					{PowerW: 72.25, Loss: 0.01, StepLoss: 0.01, StepIdx: 3, StepProc: 1},
				},
				Desired:      []int{3, 3, 2},
				ReservedW:    12.5,
				CPUPowerW:    55.5,
				SystemPowerW: 99,
				Degraded:     []string{"n7", "n9"},
			}},
		{Kind: proto.KindGrant, ID: 5, Trace: &proto.TraceContext{PassID: 4},
			Grant: &proto.Grant{BudgetW: 70.125}},
		{Kind: proto.KindGrantAck, ID: 5, Now: 2.7, ServiceSec: 4e-4,
			GrantAck: &proto.GrantAck{ChargedW: 69.5, TablePowerW: 68.25, ReservedW: 1.25, Met: true}},
	}
}

// TestRoundTripAllKinds encodes every hot kind and checks the decode is
// field-for-field identical (modulo Node, which binary drops by design).
func TestRoundTripAllKinds(t *testing.T) {
	for _, m := range hotMessages() {
		var ds deltaSendState
		var rs deltaRecvState
		b, ok, err := appendMessage(nil, m, &ds, 0)
		if err != nil || !ok {
			t.Fatalf("%s: appendMessage ok=%v err=%v", m.Kind, ok, err)
		}
		var dst message
		got, err := decodeBinary(b, &dst, &ds, &rs)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind, err)
		}
		want := *m
		want.V = proto.Version
		if !reflect.DeepEqual(normalize(got), normalize(&want)) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", m.Kind, payloadOf(got), payloadOf(&want))
		}
	}
}

// normalize deep-copies a message through its payload pointers so
// conn-owned reused structs compare by value.
func normalize(m *proto.Message) proto.Message {
	out := *m
	if m.Trace != nil {
		tc := *m.Trace
		out.Trace = &tc
	}
	if m.CounterRequest != nil {
		v := *m.CounterRequest
		out.CounterRequest = &v
	}
	if m.CounterReport != nil {
		v := *m.CounterReport
		v.CPUs = append([]proto.CPUReport(nil), m.CounterReport.CPUs...)
		out.CounterReport = &v
	}
	if m.Actuate != nil {
		v := proto.Actuate{FreqsMHz: append([]float64(nil), m.Actuate.FreqsMHz...)}
		out.Actuate = &v
	}
	if m.ActuateAck != nil {
		v := proto.ActuateAck{AppliedMHz: append([]float64(nil), m.ActuateAck.AppliedMHz...)}
		out.ActuateAck = &v
	}
	if m.DemandReport != nil {
		v := *m.DemandReport
		v.Points = append([]proto.DemandPoint(nil), m.DemandReport.Points...)
		v.Desired = append([]int(nil), m.DemandReport.Desired...)
		v.Degraded = append([]string(nil), m.DemandReport.Degraded...)
		out.DemandReport = &v
	}
	if m.Grant != nil {
		v := *m.Grant
		out.Grant = &v
	}
	if m.GrantAck != nil {
		v := *m.GrantAck
		out.GrantAck = &v
	}
	return out
}

func payloadOf(m *proto.Message) any {
	switch {
	case m.CounterReport != nil:
		return *m.CounterReport
	case m.DemandReport != nil:
		return *m.DemandReport
	default:
		return *m
	}
}

// TestExactFloats checks awkward float values survive the codec bit for
// bit — the codec must not perturb scheduler arithmetic.
func TestExactFloats(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1.0 / 3.0, math.Nextafter(80, 81), 1e-300, math.MaxFloat64, math.Inf(1)}
	m := &proto.Message{Kind: proto.KindActuate, ID: 9, Actuate: &proto.Actuate{FreqsMHz: vals}}
	b, ok, err := appendMessage(nil, m, nil, 0)
	if !ok || err != nil {
		t.Fatalf("append: ok=%v err=%v", ok, err)
	}
	var dst message
	got, err := decodeBinary(b, &dst, nil, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, v := range vals {
		if math.Float64bits(got.Actuate.FreqsMHz[i]) != math.Float64bits(v) {
			t.Fatalf("float %d: %x != %x", i, math.Float64bits(got.Actuate.FreqsMHz[i]), math.Float64bits(v))
		}
	}
}

// TestColdKindsStayJSON checks hello/capabilities/error have no binary
// form: appendMessage declines and the conn falls back to JSON.
func TestColdKindsStayJSON(t *testing.T) {
	for _, kind := range []string{proto.KindHello, proto.KindHelloAck, proto.KindError} {
		_, ok, err := appendMessage(nil, &proto.Message{Kind: kind}, nil, 0)
		if ok || err != nil {
			t.Fatalf("%s: ok=%v err=%v, want JSON fallback", kind, ok, err)
		}
	}
}

// TestTypedDecodeErrors checks each malformed-frame class surfaces as its
// typed error.
func TestTypedDecodeErrors(t *testing.T) {
	valid, _, err := appendMessage(nil, &proto.Message{Kind: proto.KindHeartbeat, ID: 1}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"empty", nil, ErrTruncated},
		{"short-header", []byte{Magic, Version}, ErrTruncated},
		{"bad-magic", []byte{'{', Version, kindHeartbeat, 0}, ErrBadMagic},
		{"bad-version", []byte{Magic, 99, kindHeartbeat, 0, 0}, ErrBadVersion},
		{"bad-kind", []byte{Magic, Version, 200, 0, 0}, ErrBadKind},
		{"bad-flags", []byte{Magic, Version, kindHeartbeat, 0x80, 0}, ErrCorrupt},
		{"delta-on-heartbeat", []byte{Magic, Version, kindHeartbeat, flagDelta, 0}, ErrCorrupt},
		{"truncated-envelope", valid[:6], ErrTruncated},
		{"trailing-garbage", append(append([]byte(nil), valid...), 0xFF), ErrCorrupt},
		{"orphan-delta", func() []byte {
			var ds deltaSendState
			ds.seq, ds.ackSeq = 5, 5
			ds.base = make([]cpuBase, 2)
			rep := sampleReport(2, 1)
			b, _, _ := appendMessage(nil, &proto.Message{Kind: proto.KindCounterReport, ID: 2, CounterReport: rep}, &ds, 0)
			return b
		}(), ErrDeltaBase},
	}
	for _, tc := range cases {
		var dst message
		var ds deltaSendState
		var rs deltaRecvState
		_, err := decodeBinary(tc.payload, &dst, &ds, &rs)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestConnMirror checks server-side codec follow: the agent end answers
// JSON until the coordinator's first binary frame, then answers binary.
func TestConnMirror(t *testing.T) {
	a, b := memPair()
	coord := NewConn(a, Options{})
	agent := NewConn(b, Options{Mirror: true})

	send := func(c *Conn, m *proto.Message) {
		t.Helper()
		if err := c.Send(m); err != nil {
			t.Fatalf("send %s: %v", m.Kind, err)
		}
	}
	recv := func(c *Conn, kind string) *proto.Message {
		t.Helper()
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if m.Kind != kind {
			t.Fatalf("recv kind %s, want %s", m.Kind, kind)
		}
		return m
	}

	// JSON handshake phase.
	send(coord, &proto.Message{Kind: proto.KindHeartbeat, ID: 1})
	recv(agent, proto.KindHeartbeat)
	if agent.binary {
		t.Fatal("agent went binary on a JSON frame")
	}
	send(agent, &proto.Message{Kind: proto.KindHeartbeatAck, ID: 1})
	recv(coord, proto.KindHeartbeatAck)

	// Coordinator enables binary; agent mirrors on first binary frame.
	coord.SetBinary(true)
	send(coord, &proto.Message{Kind: proto.KindHeartbeat, ID: 2})
	recv(agent, proto.KindHeartbeat)
	if !agent.binary {
		t.Fatal("agent did not mirror binary")
	}
	send(agent, &proto.Message{Kind: proto.KindHeartbeatAck, ID: 2})
	recv(coord, proto.KindHeartbeatAck)

	// Cold kinds still JSON in both directions.
	send(coord, &proto.Message{Kind: proto.KindHello, Hello: &proto.Hello{Coordinator: "c0"}})
	m := recv(agent, proto.KindHello)
	if m.Hello == nil || m.Hello.Coordinator != "c0" {
		t.Fatalf("hello payload lost: %+v", m)
	}
}

// TestConnDeltaFlow drives counter polls through two conns and checks the
// second and later reports go delta (the request acked the first), while
// a JSON interlude forces a full snapshot.
func TestConnDeltaFlow(t *testing.T) {
	a, b := memPair()
	st := &Stats{}
	coord := NewConn(a, Options{Stats: st})
	agent := NewConn(b, Options{Mirror: true})
	coord.SetBinary(true)

	poll := func(id uint64, rep *proto.CounterReport) *proto.CounterReport {
		t.Helper()
		if err := coord.Send(&proto.Message{Kind: proto.KindCounterRequest, ID: id,
			CounterRequest: &proto.CounterRequest{AdvanceQuanta: 10, WindowQuanta: 10}}); err != nil {
			t.Fatal(err)
		}
		if _, err := agent.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := agent.Send(&proto.Message{Kind: proto.KindCounterReport, ID: id, CounterReport: rep}); err != nil {
			t.Fatal(err)
		}
		m, err := coord.Recv()
		if err != nil {
			t.Fatal(err)
		}
		out := *m.CounterReport
		out.CPUs = append([]proto.CPUReport(nil), m.CounterReport.CPUs...)
		return &out
	}

	for i := 0; i < 5; i++ {
		want := sampleReport(8, int64(i))
		got := poll(uint64(i+1), want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("poll %d: report mismatch", i)
		}
	}
	s := st.Snapshot()
	if s.FullIn != 1 || s.DeltaIn != 4 {
		t.Fatalf("full=%d delta=%d, want 1 full then 4 deltas", s.FullIn, s.DeltaIn)
	}

	// A JSON request (e.g. a JSON-only coordinator taking over) resets the
	// ack: next report must be full.
	coord.SetBinary(false)
	want := sampleReport(8, 99)
	if got := poll(9, want); !reflect.DeepEqual(got, want) {
		t.Fatal("post-JSON poll mismatch")
	}
	coord.SetBinary(true)
	want = sampleReport(8, 100)
	if got := poll(10, want); !reflect.DeepEqual(got, want) {
		t.Fatal("re-enabled poll mismatch")
	}
	s = st.Snapshot()
	if s.FullIn != 2 {
		t.Fatalf("full=%d after JSON interlude, want 2 (snapshot resent)", s.FullIn)
	}
}

// TestSteadyStateZeroAlloc is the hard 0 allocs/op gate on the hot codec
// path: after warm-up, a binary heartbeat and counter poll round trip
// without a single allocation on Send or Recv.
func TestSteadyStateZeroAlloc(t *testing.T) {
	a, b := memPair()
	ab := a.(*memEnd).out
	ba := b.(*memEnd).out
	coord := NewConn(a, Options{})
	agent := NewConn(b, Options{Mirror: true})
	coord.SetBinary(true)

	rep := sampleReport(8, 5)
	// Messages are hoisted out of the loop: the gate measures the codec
	// path, and callers (coordinator, agent) likewise reuse request
	// structures across rounds.
	reqMsg := &proto.Message{Kind: proto.KindCounterRequest, ID: 7,
		Trace:          &proto.TraceContext{PassID: 2},
		CounterRequest: &proto.CounterRequest{AdvanceQuanta: 10, WindowQuanta: 10}}
	repMsg := &proto.Message{Kind: proto.KindCounterReport, ID: 7, CounterReport: rep}
	cycle := func() {
		ab.Reset()
		ba.Reset()
		if err := coord.Send(reqMsg); err != nil {
			t.Fatal(err)
		}
		if _, err := agent.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := agent.Send(repMsg); err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		cycle() // warm buffers and delta state
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state codec cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFrameTooLarge checks both directions of the size bound.
func TestFrameTooLarge(t *testing.T) {
	a, _ := memPair()
	c := NewConn(a, Options{})
	c.SetBinary(true)
	huge := &proto.Message{Kind: proto.KindActuate, Actuate: &proto.Actuate{FreqsMHz: make([]float64, proto.MaxMessageSize/8+2)}}
	if err := c.Send(huge); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized send: %v, want ErrTooLarge", err)
	}

	in := &bytes.Buffer{}
	in.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	r := NewConn(&memEnd{in: in, out: &bytes.Buffer{}}, Options{})
	if _, err := r.Recv(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized recv: %v, want ErrTooLarge", err)
	}
}

// TestRecvTruncatedFrame checks a frame cut mid-payload errors rather
// than hangs or panics.
func TestRecvTruncatedFrame(t *testing.T) {
	var ds deltaSendState
	full, _, err := appendMessage(nil, &proto.Message{Kind: proto.KindCounterReport, ID: 3,
		CounterReport: sampleReport(2, 3)}, &ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut += 5 {
		in := &bytes.Buffer{}
		var hdr [4]byte
		hdr[0] = byte(len(full) >> 24)
		hdr[1] = byte(len(full) >> 16)
		hdr[2] = byte(len(full) >> 8)
		hdr[3] = byte(len(full))
		in.Write(hdr[:])
		in.Write(full[:cut])
		c := NewConn(&memEnd{in: in, out: &bytes.Buffer{}}, Options{})
		if _, err := c.Recv(); err == nil {
			t.Fatalf("cut at %d: no error", cut)
		} else if errors.Is(err, io.EOF) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: raw EOF leaked: %v", cut, err)
		}
	}
}

// chunkConn delivers its chunks one per transport Read, the way a stream
// hands a reader whatever has arrived, and counts the reads.
type chunkConn struct {
	memEnd
	chunks [][]byte
	reads  int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	c.reads++
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// reportFrame is a framed full counter report over nCPU processors and the
// message it decodes to.
func reportFrame(t *testing.T, id uint64, nCPU int) ([]byte, proto.Message) {
	t.Helper()
	m := &proto.Message{V: proto.Version, Kind: proto.KindCounterReport, ID: id, CounterReport: sampleReport(nCPU, int64(id))}
	var ds deltaSendState
	b, ok, err := appendMessage(nil, m, &ds, 0)
	if err != nil || !ok {
		t.Fatalf("appendMessage ok=%v err=%v", ok, err)
	}
	return frame(b), normalize(m)
}

// TestRecvCoalescedFrames: two frames that arrive in one transport read
// decode in order from that one read; the second Recv is served from the
// conn's buffer.
func TestRecvCoalescedFrames(t *testing.T) {
	f1, want1 := reportFrame(t, 1, 4)
	f2, want2 := reportFrame(t, 2, 4)
	cc := &chunkConn{chunks: [][]byte{append(append([]byte(nil), f1...), f2...)}}
	c := NewConn(cc, Options{})
	for i, want := range []proto.Message{want1, want2} {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(got), want) {
			t.Fatalf("frame %d:\n got %+v\nwant %+v", i, payloadOf(got), payloadOf(&want))
		}
		if cc.reads != 1 {
			t.Fatalf("frame %d took %d transport reads, want 1 for both", i, cc.reads)
		}
	}
	if _, err := c.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestRecvSplitFrame: a frame that arrives in two pieces, split at every
// byte boundary (inside the header included), decodes whole — one that
// fits the conn's read buffer and one that does not.
func TestRecvSplitFrame(t *testing.T) {
	for _, nCPU := range []int{4, 120} {
		f, want := reportFrame(t, 9, nCPU)
		if big := len(f) > recvBufSize; big != (nCPU == 120) {
			t.Fatalf("%d-CPU frame is %d bytes against a %d-byte buffer", nCPU, len(f), recvBufSize)
		}
		for cut := 1; cut < len(f); cut++ {
			c := NewConn(&chunkConn{chunks: [][]byte{f[:cut:cut], f[cut:]}}, Options{})
			got, err := c.Recv()
			if err != nil {
				t.Fatalf("%d CPUs, cut at %d: %v", nCPU, cut, err)
			}
			if !reflect.DeepEqual(normalize(got), want) {
				t.Fatalf("%d CPUs, cut at %d:\n got %+v\nwant %+v", nCPU, cut, payloadOf(got), payloadOf(&want))
			}
		}
	}
}

func TestNegotiate(t *testing.T) {
	if !Negotiate([]string{"json", CodecName}) {
		t.Fatal("bin1 not negotiated")
	}
	if Negotiate([]string{"json"}) || Negotiate(nil) {
		t.Fatal("negotiated without advertisement")
	}
}
