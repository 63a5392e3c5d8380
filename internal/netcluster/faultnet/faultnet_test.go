package faultnet

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/netcluster/proto"
	"repro/internal/netcluster/wire"
)

// pipe returns two ends of an in-memory message connection: the stream
// implementation the fabric wraps everywhere else.
func pipe() (proto.Conn, proto.Conn) {
	a, b := net.Pipe()
	return wire.NewConn(a, wire.Options{}), wire.NewConn(b, wire.Options{})
}

// collect reads messages from c until an error (deadline, close) and
// returns the IDs seen.
func collect(c proto.Conn, window time.Duration) []uint64 {
	c.SetDeadline(time.Now().Add(window))
	var ids []uint64
	for {
		m, err := c.Recv()
		if err != nil {
			return ids
		}
		ids = append(ids, m.ID)
	}
}

// deliveredIDs sends n heartbeats through a fresh fabric with the given
// seed and policy and returns the IDs that survive.
func deliveredIDs(t *testing.T, seed int64, pol Policy, n int) []uint64 {
	t.Helper()
	net := New(seed)
	if err := net.SetPolicy("n0", pol); err != nil {
		t.Fatal(err)
	}
	a, b := pipe()
	fa := net.Wrap("n0", a)
	defer fa.Close()
	defer b.Close()
	done := make(chan []uint64, 1)
	go func() { done <- collect(b, 300*time.Millisecond) }()
	for i := 0; i < n; i++ {
		if err := fa.Send(&proto.Message{Kind: proto.KindHeartbeat, ID: uint64(i)}); err != nil {
			t.Errorf("send %d: %v", i, err)
		}
	}
	return <-done
}

func TestSeededDropIsDeterministic(t *testing.T) {
	pol := Policy{DropProb: 0.3}
	first := deliveredIDs(t, 42, pol, 200)
	second := deliveredIDs(t, 42, pol, 200)
	if len(first) == 0 || len(first) == 200 {
		t.Fatalf("drop policy delivered %d/200; want a strict subset", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("same seed delivered %d then %d messages", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed diverged at position %d: %d vs %d", i, first[i], second[i])
		}
	}
	other := deliveredIDs(t, 43, pol, 200)
	same := len(other) == len(first)
	if same {
		for i := range first {
			if other[i] != first[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical drop sequences")
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	ids := deliveredIDs(t, 1, Policy{DupProb: 1}, 3)
	want := []uint64{0, 0, 1, 1, 2, 2}
	if len(ids) != len(want) {
		t.Fatalf("got %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("got %v, want %v", ids, want)
		}
	}
}

func TestDropEverything(t *testing.T) {
	if ids := deliveredIDs(t, 1, Policy{DropProb: 1}, 10); len(ids) != 0 {
		t.Errorf("full drop delivered %v", ids)
	}
}

func TestDelayStallsDelivery(t *testing.T) {
	net := New(1)
	net.SetPolicy("n0", Policy{Delay: 30 * time.Millisecond})
	a, b := pipe()
	fa := net.Wrap("n0", a)
	defer fa.Close()
	defer b.Close()
	go fa.Send(&proto.Message{Kind: proto.KindHeartbeat, ID: 1})
	start := time.Now()
	b.SetDeadline(time.Now().Add(time.Second))
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("delayed message arrived after only %v", elapsed)
	}
}

func TestPartitionRefusesDialAndEatsTraffic(t *testing.T) {
	net := New(1)
	a, b := pipe()
	fa := net.Wrap("n0", a)
	defer fa.Close()
	defer b.Close()

	// Pre-partition traffic flows.
	go fa.Send(&proto.Message{Kind: proto.KindHeartbeat, ID: 1})
	b.SetDeadline(time.Now().Add(time.Second))
	if _, err := b.Recv(); err != nil {
		t.Fatalf("healthy send: %v", err)
	}

	net.Partition("n0")
	if !net.Partitioned("n0") {
		t.Fatal("partition not recorded")
	}
	if _, err := net.Dial("n0", "127.0.0.1:1", 100*time.Millisecond); !errors.Is(err, ErrPartitioned) {
		t.Errorf("dial during partition: %v", err)
	}
	// Sends vanish silently; nothing reaches the far side.
	if err := fa.Send(&proto.Message{Kind: proto.KindHeartbeat, ID: 2}); err != nil {
		t.Errorf("partitioned send should swallow, got %v", err)
	}
	if ids := collect(b, 50*time.Millisecond); len(ids) != 0 {
		t.Errorf("partition leaked %v", ids)
	}

	// Messages that arrive across the cut are discarded by the wrapped
	// receiver too.
	go b.Send(&proto.Message{Kind: proto.KindHeartbeatAck, ID: 3})
	if ids := collect(fa, 50*time.Millisecond); len(ids) != 0 {
		t.Errorf("wrapped receiver accepted %v across the partition", ids)
	}

	net.Heal("n0")
	fa.SetDeadline(time.Time{}) // clear the deadline collect left behind
	go fa.Send(&proto.Message{Kind: proto.KindHeartbeat, ID: 4})
	b.SetDeadline(time.Now().Add(time.Second))
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("post-heal send: %v", err)
	}
	if m.ID != 4 {
		t.Errorf("post-heal message ID %d", m.ID)
	}
}

func TestPolicyValidation(t *testing.T) {
	net := New(1)
	for _, p := range []Policy{
		{DropProb: -0.1}, {DropProb: 1.1}, {DupProb: 2}, {Delay: -time.Second},
	} {
		if err := net.SetPolicy("n0", p); err == nil {
			t.Errorf("policy %+v accepted", p)
		}
	}
}

// TestSetBinaryReachesWrappedConn: codec selection passes through the
// fabric, so a faulted link carries the same bin1 hot frames a bare one
// does.
func TestSetBinaryReachesWrappedConn(t *testing.T) {
	a, b := net.Pipe()
	var st wire.Stats
	fa := New(1).Wrap("n0", wire.NewConn(a, wire.Options{Stats: &st}))
	fb := wire.NewConn(b, wire.Options{})
	defer fa.Close()
	defer fb.Close()
	fa.SetBinary(true)
	go fa.Send(&proto.Message{Kind: proto.KindHeartbeat, ID: 1})
	fb.SetDeadline(time.Now().Add(time.Second))
	if m, err := fb.Recv(); err != nil || m.ID != 1 {
		t.Fatalf("recv: %v, %+v", err, m)
	}
	if snap := st.Snapshot(); snap.BinFramesOut != 1 || snap.JSONFramesOut != 0 {
		t.Errorf("heartbeat went out as %d binary + %d JSON frames, want 1 + 0", snap.BinFramesOut, snap.JSONFramesOut)
	}
}
