// Package faultnet injects deterministic failures into netcluster
// connections at message granularity: per-message drop, duplication and
// delay, plus whole-node partitions that also refuse new dials. It backs
// both the netcluster test suite and cmd/fvsst-cluster's fault scenarios,
// so the coordinator's retry, timeout, degrade and rejoin paths can be
// exercised reproducibly on loopback.
//
// Seeding convention (shared with machine.Config.Seed and
// power.NewMeter): randomness is never drawn from the global source. A
// Network takes one explicit base seed; every connection it wraps gets
// its own *rand.Rand seeded base+k, where k is the 0-based wrap order.
// Derived components offsetting one base seed (the machine offsets its
// meter by +1000) keep streams independent while one scenario seed
// reproduces the whole run; per-connection streams additionally make each
// connection's fault sequence independent of goroutine interleaving
// across connections. Same seed, same wrap order, same per-connection
// message sequence ⇒ same faults.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/netcluster/proto"
	"repro/internal/netcluster/wire"
)

// ErrPartitioned is returned by Dial for, and by Send/Recv on connections
// to, a node on the far side of a partition.
var ErrPartitioned = errors.New("faultnet: node partitioned")

// Policy is the per-message fault mix applied to one node's connections.
// The zero Policy injects nothing.
type Policy struct {
	// DropProb silently discards a sent message with this probability.
	DropProb float64
	// DupProb sends a message twice with this probability — the
	// retransmission duplicate a real network can deliver.
	DupProb float64
	// Delay stalls every delivered message by this fixed latency.
	Delay time.Duration
}

// Validate checks the probabilities.
func (p Policy) Validate() error {
	if p.DropProb < 0 || p.DropProb > 1 {
		return fmt.Errorf("faultnet: drop probability %v out of [0,1]", p.DropProb)
	}
	if p.DupProb < 0 || p.DupProb > 1 {
		return fmt.Errorf("faultnet: duplicate probability %v out of [0,1]", p.DupProb)
	}
	if p.Delay < 0 {
		return fmt.Errorf("faultnet: negative delay")
	}
	return nil
}

// Network is the fault-injection fabric between a coordinator and its
// agents. It hands out wrapped connections and controls, per node name,
// the fault policy and partition state.
type Network struct {
	mu          sync.Mutex
	seed        int64
	wraps       int64
	dial        func(addr string, timeout time.Duration) (proto.Conn, error)
	policies    map[string]Policy
	partitioned map[string]bool
}

// New builds a fabric drawing all randomness from the explicit base seed
// (see the package comment for the seeding convention).
func New(seed int64) *Network {
	return &Network{
		seed:        seed,
		dial:        wire.Dial,
		policies:    make(map[string]Policy),
		partitioned: make(map[string]bool),
	}
}

// SetTransport replaces the underlying dialer Dial wraps (default
// wire.Dial, TCP) — PipeDialer.DialTransport runs fault scenarios over
// in-process pipes. The fabric itself is codec-agnostic.
func (n *Network) SetTransport(dial func(addr string, timeout time.Duration) (proto.Conn, error)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dial = dial
}

// SetPolicy installs the fault policy for a node's future and existing
// connections.
func (n *Network) SetPolicy(node string, p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.policies[node] = p
	return nil
}

// Partition cuts the node off: its connections drop everything in both
// directions and new dials fail until Heal.
func (n *Network) Partition(node string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[node] = true
}

// Heal reconnects a partitioned node.
func (n *Network) Heal(node string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, node)
}

// Partitioned reports the node's partition state.
func (n *Network) Partitioned(node string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partitioned[node]
}

// Dial opens a faulty connection to the node's agent, refusing while the
// node is partitioned.
func (n *Network) Dial(node, addr string, timeout time.Duration) (proto.Conn, error) {
	if n.Partitioned(node) {
		return nil, fmt.Errorf("dial %s (%s): %w", node, addr, ErrPartitioned)
	}
	n.mu.Lock()
	dial := n.dial
	n.mu.Unlock()
	c, err := dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return n.Wrap(node, c), nil
}

// Wrap layers the node's fault policy and partition state over an
// existing connection. Each wrap gets its own deterministic random
// stream.
func (n *Network) Wrap(node string, c proto.Conn) proto.Conn {
	n.mu.Lock()
	rng := rand.New(rand.NewSource(n.seed + n.wraps))
	n.wraps++
	n.mu.Unlock()
	return &faultConn{net: n, node: node, inner: c, rng: rng}
}

// faultConn applies the fabric's current policy to one connection. The
// rng is owned by the connection and guarded by mu, so concurrent Sends
// are safe and the draw sequence depends only on this connection's
// message order.
type faultConn struct {
	net   *Network
	node  string
	inner proto.Conn
	mu    sync.Mutex
	rng   *rand.Rand
}

func (f *faultConn) policy() Policy {
	f.net.mu.Lock()
	defer f.net.mu.Unlock()
	return f.net.policies[f.node]
}

func (f *faultConn) Send(m *proto.Message) error {
	if f.net.Partitioned(f.node) {
		// The frame enters the void. Model it as a silent drop — the
		// sender learns about the partition from the missing response,
		// exactly as over a real network.
		return nil
	}
	p := f.policy()
	f.mu.Lock()
	drop := p.DropProb > 0 && f.rng.Float64() < p.DropProb
	dup := p.DupProb > 0 && f.rng.Float64() < p.DupProb
	f.mu.Unlock()
	if drop {
		return nil
	}
	if p.Delay > 0 {
		time.Sleep(p.Delay)
	}
	if err := f.inner.Send(m); err != nil {
		return err
	}
	if dup {
		return f.inner.Send(m)
	}
	return nil
}

func (f *faultConn) Recv() (*proto.Message, error) {
	for {
		m, err := f.inner.Recv()
		if err != nil {
			return nil, err
		}
		if f.net.Partitioned(f.node) {
			// Arrived after the cut: the partition ate it.
			continue
		}
		return m, nil
	}
}

func (f *faultConn) SetDeadline(t time.Time) error { return f.inner.SetDeadline(t) }

func (f *faultConn) Close() error { return f.inner.Close() }

// SetBinary forwards codec selection to the wrapped connection; fault
// injection is codec-agnostic.
func (f *faultConn) SetBinary(on bool) { f.inner.SetBinary(on) }
