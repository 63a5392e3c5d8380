package experiments

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/units"
)

// Figure1Curve is the performance-versus-frequency curve of one synthetic
// CPU intensity.
type Figure1Curve struct {
	IntensityPct float64
	Freqs        []units.Frequency
	// NormPerf is throughput at each frequency normalised to throughput
	// at the maximum frequency.
	NormPerf []float64
	// SaturationFreq is the lowest frequency retaining ≥95% of maximum
	// performance — where the curve goes flat.
	SaturationFreq units.Frequency
}

// Figure1Report reproduces Figure 1 (performance saturation, from Kotla et
// al. [2]): memory-intensive settings flatten early, CPU-intensive ones
// stay linear to the top.
type Figure1Report struct {
	Curves []Figure1Curve
}

// Figure1 sweeps synthetic CPU intensity × frequency on a single fixed-
// frequency CPU.
func Figure1(o Options) (*Figure1Report, error) {
	intensities := []float64{100, 75, 50, 25, 10}
	set := power.PaperTable1().Frequencies()
	rep := &Figure1Report{}
	for _, in := range intensities {
		prog, err := o.syntheticSingle(in, 2.0)
		if err != nil {
			return nil, err
		}
		curve := Figure1Curve{IntensityPct: in}
		var perfs []float64
		for _, f := range set {
			res, err := o.fixedRun(prog, f)
			if err != nil {
				return nil, err
			}
			perfs = append(perfs, 1/res.Seconds)
			curve.Freqs = append(curve.Freqs, f)
		}
		base := perfs[len(perfs)-1] // at f_max
		for i, p := range perfs {
			norm := p / base
			curve.NormPerf = append(curve.NormPerf, norm)
			if curve.SaturationFreq == 0 && norm >= 0.95 {
				curve.SaturationFreq = curve.Freqs[i]
			}
		}
		rep.Curves = append(rep.Curves, curve)
	}
	return rep, nil
}

// Render formats the report.
func (r *Figure1Report) Render() string {
	t := textTable{
		Title:   "Figure 1: performance saturation (normalised throughput vs frequency)",
		Headers: []string{"Frequency", "cpu100", "cpu75", "cpu50", "cpu25", "cpu10"},
	}
	if len(r.Curves) == 0 {
		return t.String()
	}
	for i, f := range r.Curves[0].Freqs {
		row := []string{f.String()}
		for _, c := range r.Curves {
			row = append(row, fmt.Sprintf("%.3f", c.NormPerf[i]))
		}
		t.addRow(row...)
	}
	out := t.String()
	for _, c := range r.Curves {
		out += fmt.Sprintf("saturation (≥95%%) of cpu%.0f: %v\n", c.IntensityPct, c.SaturationFreq)
	}
	return out
}
