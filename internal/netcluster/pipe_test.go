package netcluster

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// pipeImpls are the pipes the conformance cases run against: net.Pipe as
// the oracle, and the buffered pipe PipeDialer ships.
var pipeImpls = []struct {
	name string
	new  func() (net.Conn, net.Conn)
}{{"net.Pipe", net.Pipe}, {"buffered", newPipe}}

// pending runs f in a goroutine and returns the channel its error arrives
// on, so a case can assert that a call is still blocked or has returned.
func pending(f func() error) <-chan error {
	c := make(chan error, 1)
	go func() { c <- f() }()
	return c
}

// settle is long enough for a started goroutine to block in its call.
const settle = 20 * time.Millisecond

// await returns the error f's call ended with, failing if it is still
// blocked after a second.
func await(t *testing.T, c <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-c:
		return err
	case <-time.After(time.Second):
		t.Fatalf("%s: still blocked after 1s", what)
		return nil
	}
}

// stillBlocked fails if f's call has returned within settle.
func stillBlocked(t *testing.T, c <-chan error, what string) {
	t.Helper()
	select {
	case err := <-c:
		t.Fatalf("%s: returned %v, want it still blocked", what, err)
	case <-time.After(3 * settle):
	}
}

// wantTimeout fails unless err is a deadline expiry the way net.Pipe
// reports one: a net.Error whose Timeout() is true, wrapping
// os.ErrDeadlineExceeded.
func wantTimeout(t *testing.T, err error, what string) {
	t.Helper()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("%s: %v, want a deadline expiry", what, err)
	}
}

// fillUntilError writes chunks the peer never reads until a Write fails,
// and returns that error: net.Pipe blocks on the first, the buffered pipe
// once the peer holds pipeBound unread bytes.
func fillUntilError(c net.Conn) error {
	chunk := make([]byte, pipeBound)
	for {
		if _, err := c.Write(chunk); err != nil {
			return err
		}
	}
}

// TestPipeConformance holds the buffered pipe to net.Pipe's contract on
// every behaviour the control plane relies on, running each case against
// both.
func TestPipeConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, a, b net.Conn)
	}{
		{"frames arrive intact and in order", func(t *testing.T, a, b net.Conn) {
			sizes := []int{1, 4, 1000, 4096, 65537, 1 << 20}
			frame := func(i int) []byte {
				f := make([]byte, sizes[i])
				for k := range f {
					f[k] = byte(i*31 + k)
				}
				return f
			}
			done := pending(func() error {
				for i := range sizes {
					if _, err := a.Write(frame(i)); err != nil {
						return err
					}
				}
				return nil
			})
			for i := range sizes {
				got := make([]byte, sizes[i])
				if _, err := io.ReadFull(b, got); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if !bytes.Equal(got, frame(i)) {
					t.Fatalf("frame %d of %d bytes corrupted", i, sizes[i])
				}
			}
			if err := await(t, done, "writer"); err != nil {
				t.Fatal(err)
			}
		}},
		{"EOF after the peer's Close, once drained", func(t *testing.T, a, b net.Conn) {
			done := pending(func() error {
				if _, err := a.Write([]byte("last words")); err != nil {
					return err
				}
				return a.Close()
			})
			got := make([]byte, len("last words"))
			if _, err := io.ReadFull(b, got); err != nil || string(got) != "last words" {
				t.Fatalf("read %q, %v before EOF", got, err)
			}
			if err := await(t, done, "writer"); err != nil {
				t.Fatal(err)
			}
			if n, err := b.Read(got); n != 0 || err != io.EOF {
				t.Errorf("read after the peer's Close: %d, %v; want 0, EOF", n, err)
			}
			if _, err := b.Write(got); err != io.ErrClosedPipe {
				t.Errorf("write after the peer's Close: %v, want ErrClosedPipe", err)
			}
		}},
		{"ErrClosedPipe after a local Close", func(t *testing.T, a, _ net.Conn) {
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Read(make([]byte, 1)); err != io.ErrClosedPipe {
				t.Errorf("read: %v", err)
			}
			if _, err := a.Write([]byte{1}); err != io.ErrClosedPipe {
				t.Errorf("write: %v", err)
			}
			if err := a.SetDeadline(time.Now()); err != io.ErrClosedPipe {
				t.Errorf("set deadline: %v", err)
			}
			if err := a.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		}},
		{"a past deadline fails Read and Write", func(t *testing.T, a, _ net.Conn) {
			if err := a.SetDeadline(time.Now().Add(-time.Second)); err != nil {
				t.Fatal(err)
			}
			_, err := a.Read(make([]byte, 1))
			wantTimeout(t, err, "read")
			if got, want := err.Error(), "read pipe: i/o timeout"; got != want {
				t.Errorf("read error %q, want %q", got, want)
			}
			_, err = a.Write([]byte{1})
			wantTimeout(t, err, "write")
		}},
		{"a future deadline expires a blocked Read", func(t *testing.T, a, _ net.Conn) {
			start := time.Now()
			a.SetReadDeadline(start.Add(settle))
			read := pending(func() error { _, err := a.Read(make([]byte, 1)); return err })
			wantTimeout(t, await(t, read, "read"), "read")
			if d := time.Since(start); d < settle {
				t.Errorf("expired after %v, before its %v deadline", d, settle)
			}
		}},
		{"a deadline moved later holds past the earlier one", func(t *testing.T, a, _ net.Conn) {
			start := time.Now()
			a.SetDeadline(start.Add(settle))
			a.SetDeadline(start.Add(4 * settle))
			read := pending(func() error { _, err := a.Read(make([]byte, 1)); return err })
			wantTimeout(t, await(t, read, "read"), "read")
			if d := time.Since(start); d < 4*settle {
				t.Errorf("expired after %v, before the moved %v deadline", d, 4*settle)
			}
		}},
		{"a deadline moved earlier fires early", func(t *testing.T, a, _ net.Conn) {
			a.SetDeadline(time.Now().Add(time.Hour))
			a.SetDeadline(time.Now().Add(settle))
			read := pending(func() error { _, err := a.Read(make([]byte, 1)); return err })
			wantTimeout(t, await(t, read, "read"), "read")
		}},
		{"a deadline moved into the past unblocks a pending Read", func(t *testing.T, a, _ net.Conn) {
			a.SetDeadline(time.Now().Add(time.Hour))
			read := pending(func() error { _, err := a.Read(make([]byte, 1)); return err })
			stillBlocked(t, read, "read before the deadline moved")
			a.SetDeadline(time.Now().Add(-time.Millisecond))
			wantTimeout(t, await(t, read, "read"), "read")
		}},
		{"a zero deadline clears an earlier one", func(t *testing.T, a, b net.Conn) {
			a.SetDeadline(time.Now().Add(settle))
			a.SetDeadline(time.Time{})
			got := make([]byte, 1)
			read := pending(func() error { _, err := a.Read(got); return err })
			stillBlocked(t, read, "read past the cleared deadline")
			write := pending(func() error { _, err := b.Write([]byte{7}); return err })
			if err := await(t, read, "read"); err != nil || got[0] != 7 {
				t.Errorf("read %v, %v; want the byte written", got, err)
			}
			if err := await(t, write, "write"); err != nil {
				t.Error(err)
			}
		}},
		{"Close unblocks a blocked Read", func(t *testing.T, a, _ net.Conn) {
			read := pending(func() error { _, err := a.Read(make([]byte, 1)); return err })
			stillBlocked(t, read, "read")
			a.Close()
			if err := await(t, read, "read"); err != io.ErrClosedPipe {
				t.Errorf("read: %v, want ErrClosedPipe", err)
			}
		}},
		{"the peer's Close unblocks a blocked Read", func(t *testing.T, a, b net.Conn) {
			read := pending(func() error { _, err := a.Read(make([]byte, 1)); return err })
			stillBlocked(t, read, "read")
			b.Close()
			if err := await(t, read, "read"); err != io.EOF {
				t.Errorf("read: %v, want EOF", err)
			}
		}},
		{"Close unblocks a blocked Write", func(t *testing.T, a, _ net.Conn) {
			write := pending(func() error { return fillUntilError(a) })
			stillBlocked(t, write, "write")
			a.Close()
			if err := await(t, write, "write"); err != io.ErrClosedPipe {
				t.Errorf("write: %v, want ErrClosedPipe", err)
			}
		}},
		{"a Write the peer does not read expires at its deadline", func(t *testing.T, a, _ net.Conn) {
			a.SetWriteDeadline(time.Now().Add(settle))
			write := pending(func() error { return fillUntilError(a) })
			wantTimeout(t, await(t, write, "write"), "write")
		}},
	}
	for _, impl := range pipeImpls {
		for _, tc := range cases {
			t.Run(impl.name+"/"+tc.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				a, b := impl.new()
				tc.run(t, a, b)
				a.Close()
				b.Close()
				waitGoroutines(t, before, "after both ends closed")
			})
		}
	}
}

// TestPipeProperty streams seeded random writes through each pipe to a
// concurrent reader with random buffer sizes: every byte arrives once, in
// order, whatever the interleaving.
func TestPipeProperty(t *testing.T) {
	for _, impl := range pipeImpls {
		for seed := int64(1); seed <= 8; seed++ {
			before := runtime.NumGoroutine()
			rng := rand.New(rand.NewSource(seed))
			var sent []byte
			var writes [][]byte
			for i := 0; i < 200; i++ {
				n := 1 + rng.Intn(1<<uint(1+rng.Intn(17))) // 1 B to 128 KiB, mostly small
				w := make([]byte, n)
				rng.Read(w)
				writes = append(writes, w)
				sent = append(sent, w...)
			}
			reads := make([]int, 64)
			for i := range reads {
				reads[i] = 1 + rng.Intn(1<<uint(rng.Intn(16)))
			}

			a, b := impl.new()
			done := pending(func() error {
				defer a.Close()
				for _, w := range writes {
					if _, err := a.Write(w); err != nil {
						return err
					}
				}
				return nil
			})
			var got []byte
			for i := 0; ; i++ {
				buf := make([]byte, reads[i%len(reads)])
				n, err := b.Read(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s seed %d: read: %v", impl.name, seed, err)
				}
			}
			if err := await(t, done, "writer"); err != nil {
				t.Fatalf("%s seed %d: write: %v", impl.name, seed, err)
			}
			if !bytes.Equal(got, sent) {
				t.Fatalf("%s seed %d: %d bytes received, %d sent, or reordered", impl.name, seed, len(got), len(sent))
			}
			b.Close()
			waitGoroutines(t, before, impl.name+" after the stream")
		}
	}
}

// TestPipeSteadyStateZeroAlloc: once each direction's buffer has grown to
// a frame, an RPC's transport work — a deadline moved forward, a request
// written and read, an answer written and read — allocates nothing.
func TestPipeSteadyStateZeroAlloc(t *testing.T) {
	a, b := newPipe()
	defer a.Close()
	defer b.Close()
	frame, buf := make([]byte, 300), make([]byte, 4096)
	rpc := func() {
		a.SetDeadline(time.Now().Add(time.Minute))
		a.Write(frame)
		b.Read(buf)
		b.Write(frame)
		a.Read(buf)
	}
	rpc()
	if n := testing.AllocsPerRun(1000, rpc); n != 0 {
		t.Errorf("%.1f allocations per RPC, want 0", n)
	}
}
