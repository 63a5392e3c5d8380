package obs

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/stats"
)

// Kind classifies a metric family.
type Kind string

// The three metric kinds, matching the Prometheus TYPE vocabulary.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds metric families keyed by name. All operations are safe
// for concurrent use: the registry guards the family map, each family its
// series map, and each series its value, so readers (exposition) and
// writers (instrumented hot paths) never block each other for long.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram bucket bounds

	mu     sync.Mutex
	series map[string]*series
	order  []string
}

type series struct {
	labelValues []string

	mu   sync.Mutex
	val  float64
	hist *stats.BucketHistogram
}

// register fetches or creates a family. Re-registering with the same
// shape returns the existing family; a name collision across kinds or
// label sets is a programming error and panics.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: metric needs a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]*series),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// with fetches or creates the series for one label-value tuple.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q given %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		s.hist = stats.MustBucketHistogram(f.bounds...)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter declares (or fetches) a counter family with the given label
// names.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// Gauge declares (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// Histogram declares (or fetches) a fixed-bucket histogram family with
// the given ascending upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs bucket bounds", name))
	}
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, bounds)}
}

// CounterVec is a counter family; With resolves one labelled series.
type CounterVec struct{ f *family }

// With returns the counter for the label-value tuple.
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{s: v.f.with(values)}
}

// Counter is a monotonically increasing series.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are a programming error.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic(fmt.Sprintf("obs: counter decreased by %v", delta))
	}
	c.s.mu.Lock()
	c.s.val += delta
	c.s.mu.Unlock()
}

// GaugeVec is a gauge family; With resolves one labelled series.
type GaugeVec struct{ f *family }

// With returns the gauge for the label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge {
	return &Gauge{s: v.f.with(values)}
}

// Gauge is a series that can move both ways.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.val = v
	g.s.mu.Unlock()
}

// HistogramVec is a histogram family; With resolves one labelled series.
type HistogramVec struct{ f *family }

// With returns the histogram for the label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{s: v.f.with(values)}
}

// Histogram is one labelled fixed-bucket histogram series.
type Histogram struct{ s *series }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.s.mu.Lock()
	h.s.hist.Observe(v)
	h.s.mu.Unlock()
}
