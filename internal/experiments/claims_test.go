package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/units"
)

// The claim table: every shape claim of the evaluation (DESIGN.md §4) —
// who wins, where the knees fall, which modes dominate — as a check on its
// experiment's report at test scale, keyed by registry ID. A claim's ID is
// `<experiment id>/<slug>`; EXPERIMENTS.md cites each one as `claim <id>`
// in the sentence that states it. Absolute numbers are recorded in
// EXPERIMENTS.md from a full-scale run.

// testOptions is the fast configuration the claims hold at.
func testOptions() Options { return Options{Scale: 0.05, Seed: 1} }

// claim is one checkable statement about an experiment's report.
type claim struct {
	slug  string
	check func(Report) error
}

// on states a claim about one concrete report type.
func on[R Report](slug string, check func(R) error) claim {
	return claim{slug, func(r Report) error {
		rep, ok := r.(R)
		if !ok {
			return fmt.Errorf("report is %T", r)
		}
		return check(rep)
	}}
}

// failIf is the error format describes when bad holds, else nil.
func failIf(bad bool, format string, args ...any) error {
	if bad {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// renders fails unless r's render contains every want.
func renders(r Report, want ...string) error {
	out := r.Render()
	var errs []error
	for _, w := range want {
		errs = append(errs, failIf(!strings.Contains(out, w), "render missing %q:\n%s", w, out))
	}
	return errors.Join(errs...)
}

var inf = math.Inf(1)

// bound states that the value of key at w watts lies in [lo, hi].
type bound struct {
	key       string
	w, lo, hi float64
}

// inBounds fails unless every bound holds on value, which errs when its
// report has no such key or budget.
func inBounds(value func(key string, w float64) (float64, error), bs ...bound) error {
	var errs []error
	for _, b := range bs {
		x, err := value(b.key, b.w)
		if err == nil {
			err = failIf(x < b.lo || x > b.hi, "%s at %vW = %.3f, want in [%v, %v]", b.key, b.w, x, b.lo, b.hi)
		}
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// table3At reads one field of r's cell for an app at a budget.
func table3At(r *Table3Report, field func(Table3Cell) float64) func(string, float64) (float64, error) {
	return func(app string, w float64) (float64, error) {
		for i, b := range r.Budgets {
			if b == w && i < len(r.Cells[app]) {
				return field(r.Cells[app][i]), nil
			}
		}
		return 0, fmt.Errorf("%s at %vW missing", app, w)
	}
}

// figure6At reads the normalised performance of r's "cpu" or "mem" phase
// at a limit.
func figure6At(r *Figure6Report) func(string, float64) (float64, error) {
	return func(phase string, w float64) (float64, error) {
		pts := r.CPUIntensive
		if phase == "mem" {
			pts = r.MemIntensive
		}
		for _, p := range pts {
			if p.LimitW == w {
				return p.NormPerf, nil
			}
		}
		return 0, fmt.Errorf("%s limit %vW missing", phase, w)
	}
}

// residency returns r's entry for one app and cap, or nil.
func residency(r *Figure8Report, app string, capMHz float64) *Figure8Residency {
	for i := range r.Residencies {
		if r.Residencies[i].App == app && r.Residencies[i].CapMHz == capMHz {
			return &r.Residencies[i]
		}
	}
	return nil
}

// at294 is the index of the motivating 294 W budget in r.
func at294(r *AblationPoliciesReport) (int, error) {
	for i, b := range r.BudgetsW {
		if b == 294 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("294W budget missing")
}

var claims = map[string][]claim{
	"table1": {
		on("model-fit", func(r *Table1Report) error {
			if len(r.Rows) != 16 {
				return fmt.Errorf("rows = %d, want 16", len(r.Rows))
			}
			errs := []error{
				failIf(r.WorstError > 0.08, "worst fit error %.3f > 8%%", r.WorstError),
				failIf(r.FittedC <= 0, "fitted C = %v", r.FittedC),
				renders(r, "1GHz"),
			}
			prevV := units.Voltage(0)
			for _, row := range r.Rows {
				errs = append(errs, failIf(row.Voltage < prevV, "voltage not monotone at %v", row.Freq))
				prevV = row.Voltage
			}
			return errors.Join(errs...)
		}),
	},
	"fig1": {
		on("monotone", func(r *Figure1Report) error {
			var errs []error
			for _, c := range r.Curves {
				for i := 1; i < len(c.NormPerf); i++ {
					errs = append(errs, failIf(c.NormPerf[i] < c.NormPerf[i-1]-0.02, "cpu%.0f: perf not monotone at %v", c.IntensityPct, c.Freqs[i]))
				}
			}
			return errors.Join(errs...)
		}),
		// CPU-intensive work keeps scaling; memory-intensive saturates early.
		on("saturation-order", func(r *Figure1Report) error {
			if len(r.Curves) != 5 {
				return fmt.Errorf("curves = %d", len(r.Curves))
			}
			cpu100, cpu10 := r.Curves[0], r.Curves[4]
			at500 := func(c Figure1Curve) float64 {
				for i, f := range c.Freqs {
					if f == units.MHz(500) {
						return c.NormPerf[i]
					}
				}
				return math.NaN() // fails both bounds below
			}
			v100, v10 := at500(cpu100), at500(cpu10)
			return errors.Join(
				failIf(!(v100 <= 0.7), "cpu100 at 500MHz = %.3f, want < 0.7 (near-linear)", v100),
				failIf(!(v10 >= 0.85), "cpu10 at 500MHz = %.3f, want > 0.85 (saturated)", v10),
				failIf(cpu100.SaturationFreq <= cpu10.SaturationFreq, "saturation ordering: cpu100 %v ≤ cpu10 %v", cpu100.SaturationFreq, cpu10.SaturationFreq))
		}),
	},
	"table2": {
		// Hot-idle CPUs are perfectly steady → near-zero deviation; the
		// benchmark CPU deviates more but stays bounded.
		on("idle-exact-benchmark-bounded", func(r *Table2Report) error {
			if len(r.Rows) != 4 {
				return fmt.Errorf("rows = %d", len(r.Rows))
			}
			var errs []error
			for _, row := range r.Rows {
				for cpu := 0; cpu < 3; cpu++ {
					errs = append(errs, failIf(row.DevCPU[cpu] > 0.01, "intensity %.0f: idle CPU%d dev %.3f > 0.01", row.IntensityPct, cpu, row.DevCPU[cpu]))
				}
				errs = append(errs,
					failIf(row.DevCPU[3] <= row.DevCPU[0], "intensity %.0f: CPU3 dev %.4f not above idle dev", row.IntensityPct, row.DevCPU[3]),
					failIf(row.DevCPU[3] > 0.2, "intensity %.0f: CPU3 dev %.3f implausibly large", row.IntensityPct, row.DevCPU[3]),
					failIf(row.Windows == 0, "intensity %.0f: no windows measured", row.IntensityPct))
			}
			return errors.Join(errs...)
		}),
		// Excluding the erratic init/exit phases reduces the mean deviation.
		on("init-exit-error", func(r *Table2Report) error {
			var sum3, sumStar float64
			for _, row := range r.Rows {
				sum3 += row.DevCPU[3]
				sumStar += row.DevCPU3Star
			}
			return failIf(sumStar >= sum3, "mean CPU3* %.4f not below mean CPU3 %.4f", sumStar/4, sum3/4)
		}),
	},
	"fig4": {
		// Paper: ≤3% pure overhead; the measurement also includes the
		// deliberate ε-bounded scaling (ε = 5%), so the bound is overhead + ε.
		on("overhead-bound", func(r *Figure4Report) error {
			errs := []error{failIf(len(r.Rows) != 4, "rows = %d", len(r.Rows))}
			for _, row := range r.Rows {
				errs = append(errs, failIf(row.Degradation < 0 || row.Degradation > 0.03+0.05, "intensity %.0f: degradation %.3f outside [0, 8%%]", row.IntensityPct, row.Degradation))
			}
			return errors.Join(errs...)
		}),
	},
	"fig5": {
		on("freq-tracks-phase", func(r *Figure5Report) error {
			errs := []error{
				failIf(r.MeanFreqMemPhaseMHz >= r.MeanFreqCPUPhaseMHz-50, "frequency does not track phases: cpu %.0f vs mem %.0f MHz", r.MeanFreqCPUPhaseMHz, r.MeanFreqMemPhaseMHz),
				failIf(r.Transitions < 5, "only %d phase transitions seen", r.Transitions),
			}
			for _, s := range []string{"ipc", "freq-mhz", "system-power-w"} {
				errs = append(errs, failIf(len(r.rec.series(s).Points) == 0, "series %s empty", s))
			}
			return errors.Join(errs...)
		}),
		on("power-tracks-freq", func(r *Figure5Report) error {
			return failIf(r.MeanPowerMemPhaseW >= r.MeanPowerCPUPhaseW, "power does not track frequency: cpu %.0fW vs mem %.0fW", r.MeanPowerCPUPhaseW, r.MeanPowerMemPhaseW)
		}),
	},
	"fig6": {
		// Memory-intensive: essentially flat down to 57 W (650 MHz), still
		// >0.9 at 35 W, and at every limit at least as fast as CPU-bound.
		on("memory-flat", func(r *Figure6Report) error {
			if len(r.CPUIntensive) != 16 || len(r.MemIntensive) != 16 {
				return fmt.Errorf("points = %d/%d", len(r.CPUIntensive), len(r.MemIntensive))
			}
			errs := []error{
				inBounds(figure6At(r), bound{"mem", 57, 0.95, inf}, bound{"mem", 35, 0.9, inf}),
				failIf(r.MemKneeW > 48, "memory knee at %.0fW, want ≤ 48W", r.MemKneeW),
			}
			for i, c := range r.CPUIntensive {
				m := r.MemIntensive[i]
				errs = append(errs, failIf(m.NormPerf < c.NormPerf-0.01, "at %vW mem %.3f below cpu %.3f", c.LimitW, m.NormPerf, c.NormPerf))
			}
			return errors.Join(errs...)
		}),
		// CPU-intensive: degrades a bit less than one-to-one with frequency.
		on("cpu-sublinear", func(r *Figure6Report) error {
			return inBounds(figure6At(r), bound{"cpu", 75, 0.72, 0.92}, bound{"cpu", 35, 0.5, 0.7})
		}),
	},
	"fig7": {
		// Unconstrained the 100% phase runs faster than the 75% phase; at
		// 75 W both pin at/near the 750 MHz cap; at 35 W both sit at the
		// 500 MHz power-constrained frequency.
		on("phase-frequencies", func(r *Figure7Report) error {
			if len(r.Budgets) != 3 {
				return fmt.Errorf("budgets = %d", len(r.Budgets))
			}
			full, mid, low := r.Budgets[0], r.Budgets[1], r.Budgets[2]
			return errors.Join(
				failIf(full.NormPerf != 1, "full-power norm perf = %v", full.NormPerf),
				failIf(full.MeanFreq100 <= full.MeanFreq75, "full power: f(100%%)=%.0f ≤ f(75%%)=%.0f", full.MeanFreq100, full.MeanFreq75),
				failIf(mid.MeanFreq100 > 760 || mid.MeanFreq100 < 700, "75W: f(100%%) = %.0f, want ≈750", mid.MeanFreq100),
				failIf(low.MeanFreq100 > 540 || low.MeanFreq75 > 540, "35W: f = %.0f/%.0f, want ≈500", low.MeanFreq100, low.MeanFreq75))
		}),
		on("perf-decreasing", func(r *Figure7Report) error {
			if len(r.Budgets) != 3 {
				return fmt.Errorf("budgets = %d", len(r.Budgets))
			}
			full, mid, low := r.Budgets[0], r.Budgets[1], r.Budgets[2]
			return failIf(!(full.NormPerf > mid.NormPerf && mid.NormPerf > low.NormPerf), "perf not decreasing: %v %v %v", full.NormPerf, mid.NormPerf, low.NormPerf)
		}),
	},
	"table3": {
		// CPU-bound apps lose ~20% at 75 W, memory-bound essentially
		// nothing; both lose at 35 W, the memory-bound apps only partly.
		on("perf-knees", func(r *Table3Report) error {
			return inBounds(table3At(r, func(c Table3Cell) float64 { return c.Perf }),
				bound{"gzip", 75, 0.7, 0.92}, bound{"gap", 75, 0.7, 0.92},
				bound{"gzip", 35, 0.4, 0.75}, bound{"gap", 35, 0.4, 0.75},
				bound{"mcf", 75, 0.95, inf}, bound{"health", 75, 0.95, inf},
				bound{"mcf", 35, 0.75, 0.98}, bound{"health", 35, 0.75, 0.98})
		}),
		// health degrades more than mcf at 35 W (0.72 vs 0.81 in the paper).
		on("health-below-mcf", func(r *Table3Report) error {
			perf := table3At(r, func(c Table3Cell) float64 { return c.Perf })
			h, errH := perf("health", 35)
			m, errM := perf("mcf", 35)
			return errors.Join(errH, errM, failIf(h > m+0.01, "health@35W %.2f above mcf %.2f", h, m))
		}),
		// At full budget memory-bound apps already save ≈half and CPU-bound
		// apps little; energy falls with the budget everywhere.
		on("energy", func(r *Table3Report) error {
			energy := table3At(r, func(c Table3Cell) float64 { return c.Energy })
			bs := []bound{{"gzip", 140, 0.85, inf}, {"gap", 140, 0.85, inf}, {"mcf", 140, -inf, 0.65}, {"health", 140, -inf, 0.65}}
			var errs []error
			for _, app := range r.Apps {
				bs = append(bs, bound{app, 35, -inf, 0.55})
				lo, errLo := energy(app, 35)
				hi, errHi := energy(app, 140)
				errs = append(errs, errLo, errHi, failIf(!(lo < hi), "%s energy not decreasing with budget", app))
			}
			return errors.Join(append(errs, inBounds(energy, bs...))...)
		}),
	},
	"fig8": {
		// CPU-bound apps pile up at the binding cap (§8.4: "must run at the
		// fastest frequency available").
		on("cpu-bound-at-cap", func(r *Figure8Report) error {
			if len(r.Residencies) != 12 {
				return fmt.Errorf("residencies = %d, want 12", len(r.Residencies))
			}
			var errs []error
			for _, app := range []string{"gzip", "gap"} {
				r750, r500 := residency(r, app, 750), residency(r, app, 500)
				errs = append(errs,
					failIf(r750 == nil || r750.ModeMHz != 750 || r750.FracAt[750] < 0.85, "%s at cap 750: %+v", app, r750),
					failIf(r500 == nil || r500.ModeMHz != 500, "%s at cap 500: %+v", app, r500))
			}
			return errors.Join(errs...)
		}),
		// Memory-bound apps keep a sub-900 MHz mode at the 1000 and 750 MHz
		// caps, concentrate in the 600–850 MHz band and pin at 500 MHz.
		on("memory-bound-band", func(r *Figure8Report) error {
			var errs []error
			for _, app := range []string{"mcf", "health"} {
				for _, capMHz := range []float64{1000, 750} {
					res := residency(r, app, capMHz)
					if res == nil {
						return fmt.Errorf("%s at cap %v missing", app, capMHz)
					}
					band := 0.0
					for _, mhz := range []float64{600, 650, 700, 750, 800, 850} {
						band += res.FracAt[mhz]
					}
					errs = append(errs,
						failIf(band < 0.7, "%s at cap %.0f: only %.0f%% in saturation band", app, capMHz, band*100),
						failIf(capMHz == 1000 && res.ModeMHz >= 900, "%s unconstrained mode %.0fMHz, want sub-900 saturation", app, res.ModeMHz))
				}
				res := residency(r, app, 500)
				errs = append(errs, failIf(res == nil || res.ModeMHz != 500, "%s at cap 500 not pinned: %+v", app, res))
			}
			return errors.Join(errs...)
		}),
	},
	"fig9": {
		// gap wants ≥900 MHz but the 75 W cap clips it to 750 MHz.
		on("clipped-at-cap", func(r *Figure9Report) error {
			return errors.Join(
				failIf(r.MaxActualMHz > 755, "actual frequency %v exceeds the 750MHz cap", r.MaxActualMHz),
				failIf(r.FracClipped < 0.9, "only %.0f%% of windows clipped, want ≥90%%", r.FracClipped*100),
				failIf(r.zoomActual == nil || len(r.zoomActual.Points) == 0, "Figure 10 zoom empty"))
		}),
		// The desired frequency, held between samples, averaged over the run.
		on("desired-above-cap", func(r *Figure9Report) error {
			var area float64
			pts := r.desired.Points
			for i := 1; i < len(pts); i++ {
				area += pts[i-1].V * (pts[i].T - pts[i-1].T)
			}
			mean := area / (pts[len(pts)-1].T - pts[0].T)
			return failIf(mean < 850, "mean desired %.0fMHz, want ≥850 (gap is CPU-bound)", mean)
		}),
	},
	"worked": {
		// T1 reproduces the paper exactly: ε-vector [0.6,0.7,0.8,0.8] GHz
		// all schedulable, 282 W, every loss under ε.
		on("t1-exact", func(r *WorkedExampleReport) error {
			want := []units.Frequency{units.MHz(600), units.MHz(700), units.MHz(800), units.MHz(800)}
			errs := []error{failIf(r.T1PowerW != 282, "T1 power = %v, want 282W", r.T1PowerW)}
			for i, f := range r.T1Actual {
				errs = append(errs, failIf(f != want[i], "T1 actual[%d] = %v, want %v", i, f, want[i]))
			}
			for i, l := range r.T1Losses {
				errs = append(errs, failIf(l >= 0.05, "T1 loss[%d] = %v, want < ε", i, l))
			}
			return errors.Join(errs...)
		}),
		on("t0-within-budget", func(r *WorkedExampleReport) error {
			return failIf(r.T0PowerW > 294, "T0 power %v over budget", r.T0PowerW)
		}),
	},
	"ab-policies": {
		on("fvsst-wins", func(r *AblationPoliciesReport) error {
			i, err := at294(r)
			if err != nil {
				return err
			}
			fv := r.Perf["fvsst"][i]
			errs := []error{failIf(r.WorstLoss["fvsst"][i] > 0.15, "fvsst worst loss %.3f at 294W", r.WorstLoss["fvsst"][i])}
			for _, other := range []string{"uniform", "powerdown", "util-dvs"} {
				errs = append(errs, failIf(fv < r.Perf[other][i], "fvsst %.3f below %s %.3f at 294W", fv, other, r.Perf[other][i]))
			}
			return errors.Join(errs...)
		}),
		on("powerdown-sacrifices", func(r *AblationPoliciesReport) error {
			i, err := at294(r)
			if err != nil {
				return err
			}
			return failIf(r.WorstLoss["powerdown"][i] != 1, "powerdown at 294W should sacrifice a workload entirely")
		}),
	},
	"ab-ideal": {
		on("agreement", func(r *AblationIdealReport) error {
			if r.Total != 1500 {
				return fmt.Errorf("total = %d", r.Total)
			}
			agree, within := float64(r.Agreements)/float64(r.Total), float64(r.WithinOneStep)/float64(r.Total)
			return errors.Join(
				failIf(agree < 0.95, "agreement %.3f < 0.95", agree),
				failIf(within < 0.98, "within-one-step %.3f < 0.98", within))
		}),
	},
	"ab-idle": {
		// Three hot-idle CPUs at 1 GHz burn 3×140 W; the idle signal drops
		// them to 250 MHz (9 W each): ≈390 W saved.
		on("power-saved", func(r *AblationIdleReport) error {
			return failIf(r.SavedW < 300, "idle signal saves only %.0fW", r.SavedW)
		}),
		on("busy-unharmed", func(r *AblationIdleReport) error {
			return failIf(r.BusyThroughputRatio < 0.98, "busy CPU throughput suffered: ratio %.3f", r.BusyThroughputRatio)
		}),
	},
	"ab-masking": {
		// The aggregate looks fine to the scheduler, yet the frequency
		// drops well below max...
		on("aggregate-hides-loss", func(r *AblationMaskingReport) error {
			return errors.Join(
				failIf(r.AggregatePredictedLoss >= r.Epsilon, "aggregate predicted loss %.3f not under ε %.3f", r.AggregatePredictedLoss, r.Epsilon),
				failIf(r.ChosenMHz >= 950, "chosen frequency %.0fMHz — no masking occurred, workload not memory-dominated", r.ChosenMHz))
		}),
		// ...and the CPU-bound job individually blows through the ε bound...
		on("cpu-job-exceeds-eps", func(r *AblationMaskingReport) error {
			return errors.Join(
				failIf(r.MaskedJob != "cpu-job", "masked job = %s, want cpu-job", r.MaskedJob),
				failIf(r.MaskedJobLoss <= r.Epsilon*1.5, "masked loss %.3f not clearly above ε %.3f", r.MaskedJobLoss, r.Epsilon),
				renders(r, "masked job"))
		}),
		// ...while the memory-bound jobs are genuinely near-unharmed.
		on("mem-jobs-unharmed", func(r *AblationMaskingReport) error {
			var errs []error
			for name, loss := range r.PerJobTrueLoss {
				errs = append(errs, failIf(strings.HasPrefix(name, "mem-job") && loss > r.Epsilon+0.05, "%s loss %.3f unexpectedly high", name, loss))
			}
			return errors.Join(errs...)
		}),
	},
	"ab-actuator": {
		// The §6 claim: throttling granularity and settling barely matter;
		// all actuators land within a few percent of each other.
		on("within-5pct", func(r *AblationActuatorReport) error {
			if len(r.Rows) != 3 {
				return fmt.Errorf("rows = %d", len(r.Rows))
			}
			var errs []error
			for _, row := range r.Rows[1:] {
				rel := math.Abs(row.Seconds/r.Rows[0].Seconds - 1)
				errs = append(errs, failIf(rel > 0.05, "%s runtime differs %.1f%% from default", row.Name, rel*100))
			}
			return errors.Join(errs...)
		}),
	},
	"ab-epsilon": {
		// Larger ε can only reduce energy (monotone non-increasing within
		// simulation noise) and costs bounded performance.
		on("tradeoff", func(r *AblationEpsilonReport) error {
			if len(r.Rows) != 5 {
				return fmt.Errorf("rows = %d", len(r.Rows))
			}
			var errs []error
			for i, row := range r.Rows {
				prev := r.Rows[max(i-1, 0)].NormEnergy
				errs = append(errs,
					failIf(i > 0 && row.NormEnergy > prev+0.03, "energy not non-increasing at ε=%.2f: %.3f after %.3f", row.Epsilon, row.NormEnergy, prev),
					failIf(row.NormPerf < 1-row.Epsilon-0.10, "ε=%.2f: perf %.3f lost far more than ε", row.Epsilon, row.NormPerf),
					failIf(row.NormPerf > 1.02, "ε=%.2f: perf %.3f above the fixed run", row.Epsilon, row.NormPerf))
			}
			return errors.Join(errs...)
		}),
		// mcf saturates: even a small usable ε already buys a large energy cut.
		on("saturated-cut", func(r *AblationEpsilonReport) error {
			if len(r.Rows) != 5 {
				return fmt.Errorf("rows = %d", len(r.Rows))
			}
			return failIf(r.Rows[1].NormEnergy > 0.65, "ε=5%% energy %.3f, want ≤ 0.65 for saturated mcf", r.Rows[1].NormEnergy)
		}),
	},
	"ab-exec": {
		// The CPU3* < CPU3 conclusion holds under both noise models.
		on("star-below-raw", func(r *AblationExecModelReport) error {
			return errors.Join(
				failIf(r.DevAnalyticStar >= r.DevAnalytic, "analytic: star %.4f not below raw %.4f", r.DevAnalyticStar, r.DevAnalytic),
				failIf(r.DevMonteCarloStar >= r.DevMonteCarlo, "MC: star %.4f not below raw %.4f", r.DevMonteCarloStar, r.DevMonteCarlo),
				renders(r, "Monte-Carlo"))
		}),
		// The magnitudes agree across models within 2× — the error is a
		// property of the mechanism, not of one simulator's noise source.
		on("models-agree", func(r *AblationExecModelReport) error {
			ratio := r.DevMonteCarlo / r.DevAnalytic
			return failIf(ratio < 0.5 || ratio > 2, "exec models disagree on error magnitude: %.4f vs %.4f", r.DevMonteCarlo, r.DevAnalytic)
		}),
	},
	"cluster": {
		on("under-cap", func(r *ClusterStudyReport) error {
			return failIf(!r.PowerOK, "a policy exceeded the global cap")
		}),
		// The §4.2 tier claim: the memory-bound db tier is throttled deeper
		// than the CPU-bound app tier under the global fvsst schedule, while
		// uniform gives every tier the same frequency by construction.
		on("db-below-app", func(r *ClusterStudyReport) error {
			return errors.Join(
				failIf(r.TierFreqFVSST["db"] >= r.TierFreqFVSST["app"]-25, "db tier %.0fMHz not clearly below app tier %.0fMHz", r.TierFreqFVSST["db"], r.TierFreqFVSST["app"]),
				failIf(r.TierFreqUniform["db"] != r.TierFreqUniform["app"], "uniform tiers differ: %v", r.TierFreqUniform))
		}),
		on("makespan", func(r *ClusterStudyReport) error {
			return errors.Join(
				failIf(r.MakespanFVSST > r.MakespanUniform*1.02, "fvsst makespan %.2fs worse than uniform %.2fs", r.MakespanFVSST, r.MakespanUniform),
				renders(r, "makespan"))
		}),
	},
	"farm": {
		// fvsst saves a large share of power on a ~25%-utilised node.
		on("power-saved", func(r *ServerFarmReport) error {
			if r.JobsCompleted == 0 {
				return fmt.Errorf("no jobs completed")
			}
			saving := 1 - r.MeanPowerFVSSTW/r.MeanPowerUnmanagedW
			return errors.Join(failIf(saving < 0.35, "power saving %.0f%%, want ≥ 35%%", saving*100), renders(r, "diurnal"))
		}),
		on("demand-tracking", func(r *ServerFarmReport) error {
			return failIf(r.PeakPowerW <= r.TroughPowerW+30, "no demand tracking: peak %.0fW vs trough %.0fW", r.PeakPowerW, r.TroughPowerW)
		}),
		// A request landing on a parked CPU runs one window at low
		// frequency before the scheduler ramps up; the penalty stays bounded.
		on("latency-bounded", func(r *ServerFarmReport) error {
			return errors.Join(
				failIf(r.P95LatencyPenalty > 2.0, "p95 latency penalty %.2fx too high", r.P95LatencyPenalty),
				failIf(r.P95LatencyPenalty < 1.0, "managed run impossibly faster: %.2fx", r.P95LatencyPenalty))
		}),
	},
	"farm-powerfail": {
		on("least-loss", func(r *FarmPowerFailReport) error {
			h, e, u := r.Hierarchical, r.EqualSplit, r.Uniform
			return errors.Join(
				failIf(!(h.LossSeconds < e.LossSeconds), "hierarchical loss %.3f not below equal-split %.3f", h.LossSeconds, e.LossSeconds),
				failIf(!(h.LossSeconds < u.LossSeconds), "hierarchical loss %.3f not below uniform %.3f", h.LossSeconds, u.LossSeconds),
				renders(r, "hierarchical", "equal-split", "uniform", "lease expiries"))
		}),
		// The conservation invariant, even across the data cluster's
		// partition.
		on("no-overshoot", func(r *FarmPowerFailReport) error {
			var errs []error
			for _, p := range []FarmPolicyOutcome{r.Hierarchical, r.EqualSplit} {
				errs = append(errs, failIf(p.OvershootSec != 0, "%s: %v s of budget overshoot, want 0", p.Policy, p.OvershootSec))
			}
			return errors.Join(errs...)
		}),
		on("runway-met", func(r *FarmPowerFailReport) error {
			h := r.Hierarchical
			return failIf(!h.RunwayMet, "hierarchical runway not met: min runway %.2fs of %.0fs, UPS left %.0fJ", h.MinRunwaySec, r.RunwaySec, h.UPSRemainingJ)
		}),
		// The partitioned data cluster's lease lapses, and the UPS
		// governor's shrinking budget triggers reallocation.
		on("lease-expiry", func(r *FarmPowerFailReport) error {
			h := r.Hierarchical
			return errors.Join(
				failIf(h.LeaseExpiries < 1, "%d lease expiries, want ≥ 1", h.LeaseExpiries),
				failIf(h.Reallocs < int(r.Duration/0.1)/2, "only %d reallocations over %.0fs", h.Reallocs, r.Duration),
				failIf(h.BudgetReallocs < 1, "no budget-change reallocation despite the UPS governor shrinking the budget"))
		}),
	},
	"serve-diurnal-drop": {
		// Identical traffic, and fvsst strictly ahead of uniform on
		// drop-window web SLO attainment.
		on("drop-attainment", func(r *ServeDiurnalReport) error {
			if r.FVSST.Offered != r.Uniform.Offered || r.FVSST.Offered == 0 {
				return fmt.Errorf("offered: fvsst %d, uniform %d", r.FVSST.Offered, r.Uniform.Offered)
			}
			fw, uw := r.FVSST.Drop[0], r.Uniform.Drop[0]
			if fw.Class != "web" || fw.Resolved == 0 {
				return fmt.Errorf("drop window web row malformed: %+v", fw)
			}
			return failIf(fw.Attainment <= uw.Attainment, "drop-window web attainment: fvsst %.3f not above uniform %.3f", fw.Attainment, uw.Attainment)
		}),
		on("web-p99", func(r *ServeDiurnalReport) error {
			fp, up := r.FVSST.Final.Classes[0].P99S, r.Uniform.Final.Classes[0].P99S
			return failIf(fp >= up, "web p99: fvsst %.4fs not below uniform %.4fs", fp, up)
		}),
		on("mean-power", func(r *ServeDiurnalReport) error {
			return failIf(r.FVSST.MeanPowerW >= r.Uniform.MeanPowerW, "mean power: fvsst %.0fW not below uniform %.0fW", r.FVSST.MeanPowerW, r.Uniform.MeanPowerW)
		}),
		// No timeout is configured and the bounded queues never overflow at
		// this load, so the batch class fully completes under both policies.
		on("batch-completes", func(r *ServeDiurnalReport) error {
			var errs []error
			for _, p := range r.Outcomes() {
				b := p.Final.Classes[1]
				errs = append(errs, failIf(b.Completed != b.Admitted, "%s: batch completed %d of %d admitted", p.Policy, b.Completed, b.Admitted))
			}
			return errors.Join(errs...)
		}),
	},
	"serve-hotspot": {
		// Least-loss allocation moves stranded cold-cluster watts to where
		// the requests are: higher hot-cluster attainment and a lower tail.
		on("hot-attainment", func(r *ServeHotspotReport) error {
			hh, eh := r.Hierarchical.Clusters[0], r.EqualSplit.Clusters[0]
			if hh.Cluster != "hot" || hh.Offered == 0 {
				return fmt.Errorf("hot cluster row malformed: %+v", hh)
			}
			return failIf(hh.Attainment <= eh.Attainment, "hot web attainment: hierarchical %.3f not above equal-split %.3f", hh.Attainment, eh.Attainment)
		}),
		on("hot-p99", func(r *ServeHotspotReport) error {
			hh, eh := r.Hierarchical.Clusters[0], r.EqualSplit.Clusters[0]
			return failIf(hh.P99S >= eh.P99S, "hot web p99: hierarchical %.4fs not below equal-split %.4fs", hh.P99S, eh.P99S)
		}),
		on("hot-allocation", func(r *ServeHotspotReport) error {
			hh, eh := r.Hierarchical.Clusters[0], r.EqualSplit.Clusters[0]
			return failIf(hh.MeanAllocW <= eh.MeanAllocW, "hot mean allocation: hierarchical %.0fW not above equal-split %.0fW", hh.MeanAllocW, eh.MeanAllocW)
		}),
		// The allocator never starves the cold cluster below its floor.
		on("cold-healthy", func(r *ServeHotspotReport) error {
			var errs []error
			for _, p := range r.Outcomes() {
				errs = append(errs, failIf(p.Clusters[1].Attainment < 0.9, "%s: cold attainment %.3f", p.Policy, p.Clusters[1].Attainment))
			}
			return errors.Join(errs...)
		}),
	},
}

// TestRunAllClaims is the experiment test: every claim holds at test
// scale, each its own subtest <experiment id>/<slug>, and the table and
// the registry name the same experiments. TestRunAllParallelDeterminism
// and TestRendersAreNonEmpty hold the same runs to their bytes.
func TestRunAllClaims(t *testing.T) {
	ids := map[string]bool{}
	for _, id := range IDs() {
		ids[id] = true
		if len(claims[id]) == 0 {
			t.Errorf("experiment %s has no claim", id)
		}
	}
	for id := range claims {
		if !ids[id] {
			t.Errorf("claims lists %s, which is not a registry ID", id)
		}
	}
	for _, r := range RunAll(testOptions(), IDs(), 4) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		t.Run(r.ID, func(t *testing.T) {
			for _, c := range claims[r.ID] {
				t.Run(c.slug, func(t *testing.T) {
					if err := c.check(r.Report); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// TestExperimentsDocCitesEveryClaim binds EXPERIMENTS.md to the table:
// the doc cites every claim as `claim <id>`, and no claim the table lacks.
func TestExperimentsDocCitesEveryClaim(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := map[string]bool{}
	for _, m := range regexp.MustCompile("`claim ([^`\\s]+)`").FindAllStringSubmatch(string(doc), -1) {
		cited[m[1]] = true
	}
	for _, id := range IDs() {
		for _, c := range claims[id] {
			if !cited[id+"/"+c.slug] {
				t.Errorf("EXPERIMENTS.md does not cite claim %s/%s", id, c.slug)
			}
			delete(cited, id+"/"+c.slug)
		}
	}
	var unknown []string
	for id := range cited {
		unknown = append(unknown, id)
	}
	sort.Strings(unknown)
	for _, id := range unknown {
		t.Errorf("EXPERIMENTS.md cites claim %s, which the table does not hold", id)
	}
}
