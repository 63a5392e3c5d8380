package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPrometheusEscaping pins the 0.0.4 escaping rules: label values
// escape backslash, newline and double-quote; HELP text escapes only
// backslash and newline (quotes stay literal).
func TestPrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "help with \\ backslash, \"quotes\"\nand newline", "path").
		With("C:\\dir\n\"quoted\"").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wantHelp := `# HELP esc_total help with \\ backslash, "quotes"\nand newline` + "\n"
	if !strings.Contains(out, wantHelp) {
		t.Errorf("help line wrong:\n%s", out)
	}
	wantSeries := `esc_total{path="C:\\dir\n\"quoted\""} 1` + "\n"
	if !strings.Contains(out, wantSeries) {
		t.Errorf("series line wrong:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "\r") {
			t.Errorf("raw control char leaked: %q", line)
		}
	}
	if strings.Count(out, "\n") != 3 {
		t.Errorf("escaped newlines should not split lines:\n%q", out)
	}
}

// TestHandlerContentType pins the exact Prometheus 0.0.4 Content-Type.
func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").With().Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, want := resp.Header.Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; got != want {
		t.Errorf("Content-Type = %q, want %q", got, want)
	}
}

// TestHistogramSnapshotConsistency hammers one histogram series from
// several writers while a reader snapshots: every snapshot must be
// internally consistent (cumulative buckets monotone, bounded by the
// count, count never regressing between snapshots). Run with -race.
func TestHistogramSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.25, 0.5, 0.75}, "node")
	const writers, perWriter = 4, 2000
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := h.With("n0")
			for i := 0; i < perWriter; i++ {
				s.Observe(float64(i%4) * 0.25)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var lastCount uint64
		for !stop.Load() {
			for _, f := range r.Snapshot() {
				if f.Name != "lat" {
					continue
				}
				for _, s := range f.Series {
					prev := uint64(0)
					for i, c := range s.Cumulative {
						if c < prev {
							t.Errorf("bucket %d regressed: %d < %d", i, c, prev)
						}
						prev = c
					}
					if prev > s.Count {
						t.Errorf("cumulative %d exceeds count %d", prev, s.Count)
					}
					if s.Count < lastCount {
						t.Errorf("count regressed: %d < %d", s.Count, lastCount)
					}
					lastCount = s.Count
				}
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-done
	if got := h.With("n0").s.hist.Count(); got != writers*perWriter {
		t.Errorf("final count = %d, want %d", got, writers*perWriter)
	}
}
