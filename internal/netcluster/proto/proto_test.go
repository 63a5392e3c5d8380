// The framing tests are an external package so they can run against the
// one stream connection that implements proto.Conn, wire.Conn (which
// imports proto): these pin its JSON side — length prefix, version check,
// size bounds, deadlines — and package wire's own tests the binary side.
package proto_test

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/counters"
	. "repro/internal/netcluster/proto"
	"repro/internal/netcluster/wire"
)

// newConn wraps a stream as the message connection under test.
func newConn(c net.Conn) Conn { return wire.NewConn(c, wire.Options{}) }

// pipe returns two ends of an in-memory message connection.
func pipe() (Conn, Conn) {
	a, b := net.Pipe()
	return newConn(a), newConn(b)
}

// sendRecv pushes m through an in-memory connection and returns what the
// far end decodes.
func sendRecv(t *testing.T, m *Message) *Message {
	t.Helper()
	a, b := pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() { errc <- a.Send(m) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("send: %v", err)
	}
	return got
}

func TestRoundTripAllKinds(t *testing.T) {
	msgs := []*Message{
		{Kind: KindHello, ID: 1, Hello: &Hello{Coordinator: "coord"}},
		{Kind: KindHelloAck, ID: 1, Node: "n0", Now: 1.5, Capabilities: &Capabilities{
			Node: "n0", NumCPUs: 4, QuantumSec: 0.01,
			FreqsMHz: []float64{600, 800, 1000}, MaxPowerW: 140, FailsafeSec: 0.25,
		}},
		{Kind: KindCounterRequest, ID: 2, CounterRequest: &CounterRequest{AdvanceQuanta: 10, WindowQuanta: 10}},
		{Kind: KindCounterReport, ID: 2, Node: "n0", Now: 1.6, CounterReport: &CounterReport{
			CPUs: []CPUReport{
				{WindowSec: 0.1, Instructions: 5000, Cycles: 9000, L2Refs: 40, MemRefs: 7},
				{Idle: true, WindowSec: 0.1, Cycles: 100, HaltedCycles: 9000},
			},
			CPUPowerW: 123.5, SystemPowerW: 400,
		}},
		{Kind: KindActuate, ID: 3, Actuate: &Actuate{FreqsMHz: []float64{800, 600}}},
		{Kind: KindActuateAck, ID: 3, Node: "n0", ActuateAck: &ActuateAck{AppliedMHz: []float64{800, 600}}},
		{Kind: KindHeartbeat, ID: 4},
		{Kind: KindHeartbeatAck, ID: 4, Node: "n0", Now: 1.7},
		{Kind: KindError, ID: 5, Node: "n0", Error: "cpu 9 out of range"},
	}
	for _, m := range msgs {
		got := sendRecv(t, m)
		m.V = Version // Send stamps the version
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

func TestCPUReportDeltaRoundTrip(t *testing.T) {
	d := counters.Delta{
		Window: 0.1, Instructions: 1e6, Cycles: 2e6, HaltedCycles: 3,
		L2Refs: 500, L3Refs: 60, MemRefs: 7,
	}
	if got := ReportFor(d, false).Delta(); got != d {
		t.Errorf("delta round trip: got %+v want %+v", got, d)
	}
}

func TestRecvRejectsVersionMismatch(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	payload, _ := json.Marshal(&Message{V: Version + 1, Kind: KindHeartbeat})
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		a.Write(hdr[:])
		a.Write(payload)
	}()
	_, err := newConn(b).Recv()
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch not rejected: %v", err)
	}
}

func TestRecvRejectsOversizeAndZeroFrames(t *testing.T) {
	for _, size := range []uint32{0, MaxMessageSize + 1} {
		a, b := net.Pipe()
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], size)
		go a.Write(hdr[:])
		_, err := newConn(b).Recv()
		if err == nil {
			t.Errorf("frame length %d accepted", size)
		}
		a.Close()
		b.Close()
	}
}

func TestRecvReportsTruncatedFrame(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 100)
		a.Write(hdr[:])
		a.Write([]byte(`{"v":1`)) // only 6 of the promised 100 bytes
		a.Close()
	}()
	_, err := newConn(b).Recv()
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated frame not reported: %v", err)
	}
}

func TestSendRejectsOversizeMessage(t *testing.T) {
	a, _ := pipe()
	defer a.Close()
	m := &Message{Kind: KindError, Error: strings.Repeat("x", MaxMessageSize)}
	if err := a.Send(m); err == nil {
		t.Error("oversize message accepted")
	}
}

func TestDeadlineUnblocksRecv(t *testing.T) {
	a, b := pipe()
	defer a.Close()
	defer b.Close()
	if err := b.SetDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := b.Recv()
	if err == nil {
		t.Fatal("Recv returned without data")
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Errorf("deadline took %v to fire", time.Since(start))
	}
}

func TestDialAndServeTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		pc := newConn(c)
		defer pc.Close()
		m, err := pc.Recv()
		if err != nil {
			return
		}
		pc.Send(&Message{Kind: KindHeartbeatAck, ID: m.ID, Node: "n0"})
	}()
	c, err := wire.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&Message{Kind: KindHeartbeat, ID: 7}); err != nil {
		t.Fatal(err)
	}
	ack, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Kind != KindHeartbeatAck || ack.ID != 7 || ack.Node != "n0" {
		t.Errorf("unexpected ack %+v", ack)
	}
}
