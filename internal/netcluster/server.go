package netcluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/netcluster/proto"
	"repro/internal/netcluster/wire"
	"repro/internal/power"
)

// server is the serving side every tier below the top shares: Agent and
// Relay embed it and supply only handle. It owns what being reachable
// takes — the TCP listener and accept loop, ServeConn for pre-established
// pipes (so it is the PipeServer), the registry of live sessions, the
// request/reply loop and idempotent shutdown.
type server struct {
	name string // stamped on every reply
	// handle answers one request and never returns nil. A session delivers
	// its requests one at a time, but any number of sessions may be live
	// at once (a redialling parent's old one still parked in Recv), so
	// handle does its own locking.
	handle func(req *proto.Message) *proto.Message
	// daemon, when set, runs from Start until closed closes, then calls
	// wg.Done: the agent's lease watchdog. A pipe-registered server runs none.
	daemon func()

	// smu guards ln, conns and the closed-check-then-wg.Add of Start and
	// admit, so an Add never races Close's Wait.
	smu    sync.Mutex
	ln     net.Listener
	conns  map[proto.Conn]struct{}
	closed chan struct{}
	wg     sync.WaitGroup
}

// setup prepares the embedded server.
func (s *server) setup(name string, handle func(*proto.Message) *proto.Message) {
	s.name, s.handle = name, handle
	s.conns = make(map[proto.Conn]struct{})
	s.closed = make(chan struct{})
}

// isClosed reports whether shutdown has begun; callers hold smu.
func (s *server) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// Start binds a TCP listener on an OS-assigned loopback port and begins
// serving; Addr then reports it.
func (s *server) Start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("netcluster: %s listen: %w", s.name, err)
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.isClosed() {
		ln.Close()
		return fmt.Errorf("netcluster: %s started after Close", s.name)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	if s.daemon != nil {
		s.wg.Add(1)
		go s.daemon()
	}
	return nil
}

// Addr returns the bound listen address, or "" while there is none: before
// Start, and always for a server reached only through a PipeDialer.
func (s *server) Addr() string {
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Listen makes the server reachable and returns the NodeSpec that reaches
// it: registered on pd under its own name if there is one, else Started.
func (s *server) Listen(pd *PipeDialer) (NodeSpec, error) {
	if pd != nil {
		pd.Register(s.name, s)
		return NodeSpec{Name: s.name, Addr: s.name}, nil
	}
	err := s.Start()
	return NodeSpec{Name: s.name, Addr: s.Addr()}, err
}

// Close stops serving and waits for every session to end; a connection
// that arrives afterwards is hung up on unanswered. Closing twice is a no-op.
func (s *server) Close() (err error) {
	s.smu.Lock()
	if s.isClosed() {
		s.smu.Unlock()
		return nil
	}
	close(s.closed)
	// Unblock sessions parked in Recv: a parent that crashed never hangs up.
	for c := range s.conns {
		c.Close()
	}
	ln := s.ln
	s.smu.Unlock()
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go s.ServeConn(conn)
	}
}

// ServeConn serves one pre-established stream connection (an accepted
// socket, or one end of PipeDialer's in-process pipe) until it closes; it blocks. The session
// mirrors its peer's codec, switching to binary on the first binary frame,
// so the codec differential's JSON oracle sees pure JSON. After Close it
// hangs up at once, as a closed listener refuses the dial.
func (s *server) ServeConn(conn net.Conn) {
	s.serve(wire.NewConn(conn, wire.Options{Mirror: true}))
}

// admit registers a new session unless the server has closed.
func (s *server) admit(c proto.Conn) bool {
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.isClosed() {
		return false
	}
	s.wg.Add(1)
	s.conns[c] = struct{}{}
	return true
}

func (s *server) serve(c proto.Conn) {
	if !s.admit(c) {
		c.Close()
		return
	}
	defer s.wg.Done()
	defer func() {
		s.smu.Lock()
		delete(s.conns, c)
		s.smu.Unlock()
		c.Close()
	}()
	for {
		req, err := c.Recv()
		if err != nil {
			return // connection gone; the parent will redial
		}
		start := time.Now()
		resp := s.handle(req)
		// Every reply, fail(...) included, echoes the request's ID and
		// trace context and reports the handling time, so the parent can
		// split its round trip into wire and apply (the rpc:* spans).
		resp.ID, resp.Node, resp.Trace = req.ID, s.name, req.Trace
		resp.ServiceSec = time.Since(start).Seconds()
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

// fail builds an error response.
func fail(format string, args ...any) *proto.Message {
	return &proto.Message{Kind: proto.KindError, Error: fmt.Sprintf(format, args...)}
}

// helloAck answers a hello with caps as the tier filled them in plus what
// every tier derives from its table: the operating points, the per-CPU
// worst case a silent peer is charged at, and the hot codec.
func helloAck(now float64, table *power.Table, caps proto.Capabilities) *proto.Message {
	for _, p := range table.Points() {
		caps.FreqsMHz = append(caps.FreqsMHz, p.F.MHz())
	}
	maxP, err := table.PowerAt(table.MaxFrequency())
	if err != nil {
		return fail("capabilities: %v", err)
	}
	caps.MaxPowerW = maxP.W()
	caps.Codecs = []string{wire.CodecName}
	return &proto.Message{Kind: proto.KindHelloAck, Now: now, Capabilities: &caps}
}
