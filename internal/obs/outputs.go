package obs

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
)

// Outputs is a daemon's observability harness: the JSONL trace file
// (-trace), the Prometheus snapshot written at a clean exit (-metrics)
// and the live /metrics endpoint (-metrics-addr), opened, served and
// closed the same way by every binary.
type Outputs struct {
	out         io.Writer
	reg         *Registry
	tracePath   string
	metricsPath string
	file        *os.File
	trace       *JSONLWriter
	ln          net.Listener
}

// OpenOutputs opens a run's outputs before the run starts. It creates the
// trace file at tracePath and binds the endpoint serving reg at
// metricsAddr — synchronously, so an unusable address fails the run
// before any event is emitted instead of racing a short simulation — and
// prints the bound address to out: with ":0" the OS picks the port, and
// scripts need to learn which one. An empty path or address leaves that
// output off. The caller defers Close and calls Finish at a clean exit.
func OpenOutputs(out io.Writer, reg *Registry, tracePath, metricsPath, metricsAddr string) (*Outputs, error) {
	o := &Outputs{out: out, reg: reg, tracePath: tracePath, metricsPath: metricsPath}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		o.file, o.trace = f, NewJSONLWriter(f)
	}
	if metricsAddr != "" {
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			o.Close()
			return nil, fmt.Errorf("metrics endpoint: %w", err)
		}
		o.ln = ln
		fmt.Fprintf(out, "metrics endpoint listening on %s\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, reg.Handler()); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("metrics endpoint: %v", err)
			}
		}()
	}
	return o, nil
}

// Trace returns the trace sink, or nil when no trace was asked for.
func (o *Outputs) Trace() Sink {
	if o.trace == nil {
		return nil
	}
	return o.trace
}

// Finish ends a clean run: it flushes the trace and reports its sticky
// write error, writes reg's Prometheus exposition to the metrics path,
// and prints a line to out for each file written.
func (o *Outputs) Finish() error {
	if o.trace != nil {
		err := o.trace.Close()
		if cerr := o.file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(o.out, "decision trace written to %s\n", o.tracePath)
	}
	if o.metricsPath != "" {
		f, err := os.Create(o.metricsPath)
		if err != nil {
			return err
		}
		err = o.reg.WritePrometheus(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Fprintf(o.out, "metrics written to %s\n", o.metricsPath)
	}
	return nil
}

// Close releases the outputs on every exit path: it flushes the trace —
// a trace cut short by an error is still valid JSONL up to its last
// complete line — and closes its file and the endpoint. It is safe after
// Finish.
func (o *Outputs) Close() {
	if o.trace != nil {
		o.trace.Close()
		o.file.Close()
	}
	if o.ln != nil {
		o.ln.Close()
	}
}
