package experiments

// The figure and table code the reports share: time series of scheduler
// and machine state (for the trace figures 5, 9 and 10), text tables (for
// Tables 1–3), CSV export, and quick ASCII plots so every figure of the
// paper can be eyeballed straight from a terminal.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// point is one time-stamped observation.
type point struct {
	T float64
	V float64
}

// series is an append-only time series.
type series struct {
	Name   string
	Points []point
}

// add appends an observation. Time running backwards is a programmer
// error (every caller samples a monotone simulation clock), so it panics.
func (s *series) add(t, v float64) {
	if n := len(s.Points); n > 0 && t < s.Points[n-1].T {
		panic(fmt.Sprintf("experiments: series %q time went backwards (%v < %v)", s.Name, t, s.Points[n-1].T))
	}
	s.Points = append(s.Points, point{T: t, V: v})
}

// between returns the sub-series with T in [t0, t1).
func (s *series) between(t0, t1 float64) *series {
	out := &series{Name: s.Name}
	for _, p := range s.Points {
		if p.T >= t0 && p.T < t1 {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// recorder holds named series in creation order.
type recorder struct{ all []*series }

// series returns (creating on first use) the series with the given name.
func (r *recorder) series(name string) *series {
	for _, s := range r.all {
		if s.Name == name {
			return s
		}
	}
	s := &series{Name: name}
	r.all = append(r.all, s)
	return s
}

// writeCSV emits ss as a wide CSV: a time column (union of all
// timestamps) and one column per series, empty where a series has no point
// at that exact time.
func writeCSV(w io.Writer, ss ...*series) error {
	times := map[float64]bool{}
	for _, s := range ss {
		for _, p := range s.Points {
			times[p.T] = true
		}
	}
	sorted := make([]float64, 0, len(times))
	for t := range times {
		sorted = append(sorted, t)
	}
	sort.Float64s(sorted)

	header := []string{"time"}
	for _, s := range ss {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	// Index each series by time for the join.
	idx := make([]map[float64]float64, len(ss))
	for i, s := range ss {
		idx[i] = make(map[float64]float64, len(s.Points))
		for _, p := range s.Points {
			idx[i][p.T] = p.V
		}
	}
	for _, t := range sorted {
		row := make([]string, 0, len(ss)+1)
		row = append(row, fmt.Sprintf("%g", t))
		for _, byT := range idx {
			if v, ok := byT[t]; ok {
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

// textTable is a simple column-aligned text table used to print the
// paper's tables.
type textTable struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// addRow appends one row. Every row is built in lockstep with the headers,
// so a cell count that differs is a programmer error and panics.
func (t *textTable) addRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("experiments: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *textTable) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(&sb, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// asciiPlot renders up to two series on one rows×cols grid over the union
// of their ranges — "good enough to see the shape" output for the trace
// figures. The first series plots as '*', the second as '+', and points
// where both land as '#'. The first line is label followed by the value
// range: Figure 5 labels a single series by its name, and Figures 9 and
// 10 label the desired-vs-actual pair "desired-mhz(*) vs actual-mhz(+)".
func asciiPlot(label string, rows, cols int, ss ...*series) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	t0, t1 := math.Inf(1), math.Inf(-1)
	for _, s := range ss {
		for _, p := range s.Points {
			if p.V < lo {
				lo = p.V
			}
			if p.V > hi {
				hi = p.V
			}
			if p.T < t0 {
				t0 = p.T
			}
			if p.T > t1 {
				t1 = p.T
			}
		}
	}
	if rows < 2 || cols < 2 || t0 > t1 { // t0 > t1: no points at all
		return "(no data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}
	if t1 == t0 {
		t1 = t0 + 1
	}
	grid := bytes.Repeat([]byte{' '}, rows*cols)
	for i, s := range ss {
		glyph := "*+"[i]
		for _, p := range s.Points {
			c := int((p.T - t0) / (t1 - t0) * float64(cols-1))
			r := rows - 1 - int((p.V-lo)/(hi-lo)*float64(rows-1))
			if c < 0 || c >= cols || r < 0 || r >= rows {
				continue
			}
			switch cell := &grid[r*cols+c]; *cell {
			case ' ':
				*cell = glyph
			case glyph:
			default:
				*cell = '#'
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  [%.4g .. %.4g]\n", label, lo, hi)
	for r := 0; r < rows; r++ {
		sb.WriteString("|")
		sb.Write(grid[r*cols : (r+1)*cols])
		sb.WriteString("\n")
	}
	sb.WriteString("+" + strings.Repeat("-", cols) + "\n")
	fmt.Fprintf(&sb, " t: %.4g .. %.4g s\n", t0, t1)
	return sb.String()
}

// formatNorm formats a normalised performance/energy value the way the
// paper prints Table 3 (".79", "1", ".99").
func formatNorm(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if math.Abs(v-1) < 0.005 {
		return "1"
	}
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimPrefix(s, "0")
	return s
}
