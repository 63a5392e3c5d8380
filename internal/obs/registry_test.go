package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter", "kind")
	c.With("a").Add(2)
	c.With("a").Inc()
	c.With("b").Inc()
	if got := c.With("a").s.val; got != 3 {
		t.Errorf("counter a = %v", got)
	}
	g := r.Gauge("g", "a gauge")
	g.With().Set(5)
	g.With().Set(3)
	if got := g.With().s.val; got != 3 {
		t.Errorf("gauge = %v", got)
	}
	h := r.Histogram("h", "a histogram", []float64{1, 10})
	h.With().Observe(0.5)
	h.With().Observe(5)
	h.With().Observe(50)
	if got := h.With().s.hist.Count(); got != 3 {
		t.Errorf("histogram count = %v", got)
	}
}

func TestRegistryReRegistration(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x", "l").With("v").Inc()
	// Same shape: fetches the existing family.
	if got := r.Counter("x_total", "x", "l").With("v").s.val; got != 1 {
		t.Errorf("re-registered counter = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("kind collision did not panic")
		}
	}()
	r.Gauge("x_total", "x", "l")
}

func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("y_total", "y", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("label arity mismatch did not panic")
		}
	}()
	v.With("only-one")
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "n", "w")
	h := r.Histogram("d", "d", []float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%2))
			for i := 0; i < 1000; i++ {
				c.With(lbl).Inc()
				h.With().Observe(float64(i % 2))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.With("a").s.val + c.With("b").s.val; got != 8000 {
		t.Errorf("total = %v, want 8000", got)
	}
	if got := h.With().s.hist.Count(); got != 8000 {
		t.Errorf("observations = %v, want 8000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("fvsst_decisions_total", "Passes by trigger.", "trigger").With("timer").Add(42)
	r.Gauge("fvsst_budget_watts", "Budget.").With().Set(294)
	h := r.Histogram("err", "Error.", []float64{0.01, 0.1})
	h.With().Observe(0.005)
	h.With().Observe(0.05)
	h.With().Observe(1)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP fvsst_decisions_total Passes by trigger.
# TYPE fvsst_decisions_total counter
fvsst_decisions_total{trigger="timer"} 42
# HELP fvsst_budget_watts Budget.
# TYPE fvsst_budget_watts gauge
fvsst_budget_watts 294
# HELP err Error.
# TYPE err histogram
err_bucket{le="0.01"} 1
err_bucket{le="0.1"} 2
err_bucket{le="+Inf"} 3
err_sum 1.055
err_count 3
`
	if sb.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "").With().Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(string(body), "served_total 1") {
		t.Errorf("body:\n%s", body)
	}
}
