package experiments

import (
	"fmt"
	"sort"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// Figure8Residency is the time-at-frequency distribution of one benchmark
// under one frequency cap.
type Figure8Residency struct {
	App string
	// CapMHz is the power-constrained maximum frequency (1000, 750, 500).
	CapMHz float64
	// FracAt maps frequency (MHz, quantised to the Table 1 grid) to the
	// fraction of run time spent there.
	FracAt map[float64]float64
	// ModeMHz is the most-occupied frequency.
	ModeMHz float64
}

// Figure8Report reproduces Figure 8 (percentage of time at each
// frequency): CPU-intensive applications pile up at the cap as soon as it
// binds; memory-intensive ones keep their ≈650 MHz mode until the cap
// drops below it.
type Figure8Report struct {
	Residencies []Figure8Residency
}

// figure8Caps maps the paper's frequency caps to the equivalent budgets.
var figure8Caps = []struct {
	capMHz float64
	limitW float64
}{
	{1000, 140},
	{750, 75},
	{500, 35},
}

// Figure8 runs the residency study.
func Figure8(o Options) (*Figure8Report, error) {
	rep := &Figure8Report{}
	for _, app := range []string{"gzip", "gap", "mcf", "health"} {
		prog, err := workload.App(app, o.Scale)
		if err != nil {
			return nil, err
		}
		for _, c := range figure8Caps {
			res, err := o.fvsstRun(1, 0, prog, units.Watts(c.limitW), telemetry.NewRecorder(), nil, nil)
			if err != nil {
				return nil, err
			}
			hist := stats.NewHistogram()
			freq := res.Recorder.Series("freq-mhz")
			for i := 1; i < len(freq.Points); i++ {
				dt := freq.Points[i].T - freq.Points[i-1].T
				// Quantise to the nearest 50 MHz grid step so throttle
				// duty rounding does not scatter the bins.
				bin := 50 * float64(int(freq.Points[i].V/50+0.5))
				hist.MustAdd(bin, dt)
			}
			r := Figure8Residency{App: app, CapMHz: c.capMHz, FracAt: map[float64]float64{}}
			bins, fracs := hist.Fractions()
			best := -1.0
			for i, b := range bins {
				r.FracAt[b] = fracs[i]
				if fracs[i] > best {
					best = fracs[i]
					r.ModeMHz = b
				}
			}
			rep.Residencies = append(rep.Residencies, r)
		}
	}
	return rep, nil
}

// Render formats the report.
func (r *Figure8Report) Render() string {
	out := "Figure 8: percentage of time at each frequency\n"
	for _, res := range r.Residencies {
		out += fmt.Sprintf("%s @ cap %.0fMHz (mode %.0fMHz): ", res.App, res.CapMHz, res.ModeMHz)
		bins := make([]float64, 0, len(res.FracAt))
		for b := range res.FracAt {
			bins = append(bins, b)
		}
		sort.Float64s(bins)
		first := true
		for _, b := range bins {
			if f := res.FracAt[b]; f >= 0.005 {
				if !first {
					out += ", "
				}
				out += fmt.Sprintf("%.0fMHz %.0f%%", b, f*100)
				first = false
			}
		}
		out += "\n"
	}
	return out
}
