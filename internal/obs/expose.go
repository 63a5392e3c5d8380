package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// SeriesSnapshot is one labelled series frozen at snapshot time.
type SeriesSnapshot struct {
	LabelValues []string
	// Value carries counter/gauge state.
	Value float64
	// Histogram state: cumulative counts at the family's finite bounds.
	Cumulative []uint64
	Sum        float64
	Count      uint64
}

// FamilySnapshot is one metric family frozen at snapshot time.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []string
	Bounds []float64
	Series []SeriesSnapshot
}

// Snapshot returns a consistent-enough copy of every family for export:
// families and series appear in declaration order, each series is read
// under its own lock.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{
			Name:   f.name,
			Help:   f.help,
			Kind:   f.kind,
			Labels: append([]string(nil), f.labels...),
			Bounds: append([]float64(nil), f.bounds...),
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		byKey := make(map[string]*series, len(keys))
		for k, s := range f.series {
			byKey[k] = s
		}
		f.mu.Unlock()
		for _, k := range keys {
			s := byKey[k]
			s.mu.Lock()
			ss := SeriesSnapshot{LabelValues: append([]string(nil), s.labelValues...)}
			if s.hist != nil {
				ss.Cumulative = s.hist.Cumulative()
				ss.Sum = s.hist.Sum()
				ss.Count = s.hist.Count()
			} else {
				ss.Value = s.val
			}
			s.mu.Unlock()
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a HELP line per the 0.0.4 exposition format:
// backslash and newline only — quotes stay literal on HELP lines.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// labelPairs renders {k="v",...}; extra appends one more pair (used for
// the histogram le label). Returns "" for no labels.
func labelPairs(names, values []string, extraName, extraValue string) string {
	var parts []string
	for i, n := range names {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, n, escapeLabel(values[i])))
	}
	if extraName != "" {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, extraName, escapeLabel(extraValue)))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Snapshot() {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Series {
			switch f.Kind {
			case KindHistogram:
				for i, bound := range f.Bounds {
					lp := labelPairs(f.Labels, s.LabelValues, "le", formatFloat(bound))
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, lp, s.Cumulative[i]); err != nil {
						return err
					}
				}
				lp := labelPairs(f.Labels, s.LabelValues, "le", "+Inf")
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, lp, s.Count); err != nil {
					return err
				}
				lp = labelPairs(f.Labels, s.LabelValues, "", "")
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, lp, formatFloat(s.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, lp, s.Count); err != nil {
					return err
				}
			default:
				lp := labelPairs(f.Labels, s.LabelValues, "", "")
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, lp, formatFloat(s.Value)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Handler serves the registry over HTTP in the Prometheus text format,
// for a live /metrics endpoint a collector can scrape mid-run.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The response writer owns delivery failures; nothing to do here.
		_ = r.WritePrometheus(w)
	})
}
