// Package telemetry records and renders experiment output: time series of
// scheduler and machine state (for the trace figures 5, 9 and 10), text
// tables (for Tables 1–3), CSV export, and quick ASCII charts so every
// figure of the paper can be eyeballed straight from a terminal.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Point is one time-stamped observation.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	Points []Point
}

// Append adds an observation. Time must not run backwards.
func (s *Series) Append(t, v float64) error {
	if n := len(s.Points); n > 0 && t < s.Points[n-1].T {
		return fmt.Errorf("telemetry: series %q time went backwards (%v < %v)", s.Name, t, s.Points[n-1].T)
	}
	s.Points = append(s.Points, Point{T: t, V: v})
	return nil
}

// MustAppend is Append for simulation loops with monotone clocks.
func (s *Series) MustAppend(t, v float64) {
	if err := s.Append(t, v); err != nil {
		panic(err)
	}
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Values returns just the values, in time order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Between returns the sub-series with T in [t0, t1).
func (s *Series) Between(t0, t1 float64) *Series {
	out := &Series{Name: s.Name}
	for _, p := range s.Points {
		if p.T >= t0 && p.T < t1 {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// Recorder holds named series keyed by (group, metric).
type Recorder struct {
	series map[string]*Series
	order  []string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Series returns (creating on first use) the series with the given name.
func (r *Recorder) Series(name string) *Series {
	if s, ok := r.series[name]; ok {
		return s
	}
	s := &Series{Name: name}
	r.series[name] = s
	r.order = append(r.order, name)
	return s
}

// Names returns the recorded series names in creation order.
func (r *Recorder) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// RecorderFromSeries bundles existing series into a recorder (sharing the
// series, not copying), for CSV export of ad-hoc series collections.
func RecorderFromSeries(series ...*Series) *Recorder {
	r := NewRecorder()
	for _, s := range series {
		if s == nil {
			continue
		}
		r.series[s.Name] = s
		r.order = append(r.order, s.Name)
	}
	return r
}

// WriteCSV emits all series as a wide CSV: a time column (union of all
// timestamps) and one column per series, empty where a series has no point
// at that exact time.
func (r *Recorder) WriteCSV(w io.Writer) error {
	times := map[float64]bool{}
	for _, s := range r.series {
		for _, p := range s.Points {
			times[p.T] = true
		}
	}
	sorted := make([]float64, 0, len(times))
	for t := range times {
		sorted = append(sorted, t)
	}
	sort.Float64s(sorted)

	cols := r.Names()
	header := append([]string{"time"}, cols...)
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	// Index each series by time for the join.
	idx := make(map[string]map[float64]float64, len(cols))
	for _, name := range cols {
		byT := make(map[float64]float64, len(r.series[name].Points))
		for _, p := range r.series[name].Points {
			byT[p.T] = p.V
		}
		idx[name] = byT
	}
	for _, t := range sorted {
		row := make([]string, 0, len(cols)+1)
		row = append(row, fmt.Sprintf("%g", t))
		for _, name := range cols {
			if v, ok := idx[name][t]; ok {
				row = append(row, fmt.Sprintf("%g", v))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
