package obs

import (
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// emitPasses drives n schedule events — enough bytes to spill past the
// trace writer's buffer — into the sink and the metrics.
func emitPasses(sink Sink, m *Metrics, n int) {
	for i := 0; i < n; i++ {
		e := scheduleEvent()
		e.At = float64(i) / 10
		sink.Emit(e)
		m.Emit(e)
	}
}

// replayCount replays the trace file at path and returns its event count.
func replayCount(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b Buffer
	n, err := ReplayJSONL(f, &b)
	if err != nil {
		t.Fatalf("trace is not valid JSONL: %v", err)
	}
	if got := b.Count(EventSchedule, "budget-change"); got != n {
		t.Errorf("replayed %d schedule events of %d", got, n)
	}
	return n
}

func TestOutputsCleanFinish(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.prom")
	m := NewMetrics()
	var out strings.Builder
	o, err := OpenOutputs(&out, m.Registry, tracePath, metricsPath, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	addr, ok := strings.CutPrefix(strings.TrimSpace(out.String()), "metrics endpoint listening on ")
	if !ok {
		t.Fatalf("no bound address printed: %q", out.String())
	}
	const n = 100
	emitPasses(o.Trace(), m, n)

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	live, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := m.Registry.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if string(live) != want.String() {
		t.Errorf("live endpoint served\n%s\nwant\n%s", live, want.String())
	}

	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := replayCount(t, tracePath); got != n {
		t.Errorf("trace replays %d events, want %d", got, n)
	}
	written, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != want.String() {
		t.Errorf("-metrics file holds\n%s\nwant the registry's exposition\n%s", written, want.String())
	}
	for _, line := range []string{"decision trace written to " + tracePath, "metrics written to " + metricsPath} {
		if !strings.Contains(out.String(), line+"\n") {
			t.Errorf("output lacks %q:\n%s", line, out.String())
		}
	}
}

// An error exit returns without Finish: the deferred Close must still
// flush the trace into valid JSONL, and no metrics file is written.
func TestOutputsCloseWithoutFinishFlushesTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.prom")
	m := NewMetrics()
	o, err := OpenOutputs(io.Discard, m.Registry, tracePath, metricsPath, "")
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	emitPasses(o.Trace(), m, n)
	o.Close()
	if got := replayCount(t, tracePath); got != n {
		t.Errorf("trace replays %d events, want %d", got, n)
	}
	if _, err := os.Stat(metricsPath); !os.IsNotExist(err) {
		t.Errorf("metrics file written on an error exit: %v", err)
	}
}

// An address in use fails OpenOutputs itself, so the caller has no sink
// and the run emits nothing.
func TestOutputsAddressInUseFailsBeforeAnyEvent(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	tracePath := filepath.Join(t.TempDir(), "t.jsonl")
	var out strings.Builder
	o, err := OpenOutputs(&out, NewRegistry(), tracePath, "", held.Addr().String())
	if err == nil {
		o.Close()
		t.Fatal("a bound address was accepted")
	}
	if o != nil || out.Len() != 0 {
		t.Errorf("failed open returned %v and printed %q", o, out.String())
	}
	if got := replayCount(t, tracePath); got != 0 {
		t.Errorf("trace holds %d events", got)
	}
}

func TestOutputsOffByDefault(t *testing.T) {
	o, err := OpenOutputs(io.Discard, NewRegistry(), "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if o.Trace() != nil {
		t.Error("no -trace, yet a trace sink")
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	o.Close()
}
