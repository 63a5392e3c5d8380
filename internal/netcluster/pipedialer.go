package netcluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/netcluster/proto"
	"repro/internal/netcluster/wire"
)

// PipeServer is one end of the in-process transport: anything that can
// serve a pre-established stream connection (the server in Agent and Relay).
type PipeServer interface{ ServeConn(net.Conn) }

// PipeDialer connects coordinators to in-process servers over net.Pipe,
// bypassing kernel sockets and fd limits entirely — a 10k-agent fleet
// needs no listeners. Register each server under a name and use that
// name as its NodeSpec address. PipeDialer implements Dialer directly;
// DialTransport slots into faultnet.SetTransport so fault scenarios run
// over pipes too.
type PipeDialer struct {
	mu      sync.Mutex
	servers map[string]PipeServer
	stats   *wire.Stats
}

// NewPipeDialer builds an empty registry; stats (optional) accumulates
// codec counters across every connection dialed through it.
func NewPipeDialer(stats *wire.Stats) *PipeDialer {
	return &PipeDialer{servers: map[string]PipeServer{}, stats: stats}
}

// Register installs (or replaces) the server reachable at name.
func (d *PipeDialer) Register(name string, s PipeServer) {
	d.mu.Lock()
	d.servers[name] = s
	d.mu.Unlock()
}

// DialTransport opens a pipe to the named server and hands the remote
// end to its serve loop. The timeout is ignored: pipe establishment
// cannot block.
func (d *PipeDialer) DialTransport(addr string, _ time.Duration) (proto.Conn, error) {
	d.mu.Lock()
	s, ok := d.servers[addr]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netcluster: pipe transport has no server registered as %q", addr)
	}
	local, remote := net.Pipe()
	go s.ServeConn(remote)
	return wire.NewConn(local, wire.Options{Stats: d.stats}), nil
}

// Dial implements Dialer.
func (d *PipeDialer) Dial(_, addr string, timeout time.Duration) (proto.Conn, error) {
	return d.DialTransport(addr, timeout)
}
