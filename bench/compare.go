package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/stats"
)

// compareCmd is `bench compare BASE NEW`: per workload and metric, both
// medians, NEW's as a ratio of BASE's, and the verdict under the
// metric's bound. It fails on a regression, a changed digest, a higher
// share of failed operations, a share of missed periods that rose past
// its absolute bound, or a workload of BASE that NEW lacks; an unresolved
// row is printed, not failed.
func compareCmd(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare BASE.json NEW.json")
	}
	var files [2]benchFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	problems := compareFiles(files[0], files[1], out)
	if len(problems) > 0 {
		return fmt.Errorf("%d failures:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

// Verdicts of one end-to-end row.
const (
	verdictOK         = "ok"
	verdictBetter     = "ok, every run better"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// periodMissBound is how far, in absolute terms, the share of rounds that
// overran the paper's scheduling period T may rise.
const periodMissBound = 0.01

// judge holds cur against base under def's bound. Where either side's
// run-to-run spread is wider than the bound the difference between the
// medians says nothing, so the row is unresolved, unless every cur run
// reads better than every base run, or every one worse and the medians
// are further apart than the bound.
func judge(def metricDef, base, cur []float64) (verdict string, worse, spreadMax float64) {
	mb, mn := median(base), median(cur)
	worse = (mn - mb) / mb
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
		worse = -worse
	}
	allBetter, allWorse := true, true
	for _, b := range base {
		for _, n := range cur {
			if sign*(n-b) >= 0 {
				allBetter = false
			}
			if sign*(n-b) <= 0 {
				allWorse = false
			}
		}
	}
	spreadMax = max(spread(base), spread(cur))
	switch {
	case allBetter:
		return verdictBetter, worse, spreadMax
	case allWorse && worse > def.Bound:
		return verdictRegressed, worse, spreadMax
	case spreadMax > def.Bound:
		return verdictUnresolved, worse, spreadMax
	case worse > def.Bound:
		return verdictRegressed, worse, spreadMax
	}
	return verdictOK, worse, spreadMax
}

// judgePeriodMisses is judge for the share of missed periods, whose bound
// and spread (highest run minus lowest) are absolute: a share that is 0
// in a quiet stretch has no median to take a share of.
func judgePeriodMisses(base, cur []float64) string {
	switch {
	case median(cur) <= median(base)+periodMissBound:
		return verdictOK
	case stats.Min(cur) > stats.Max(base):
		return verdictRegressed
	case max(stats.Max(base)-stats.Min(base), stats.Max(cur)-stats.Min(cur)) > periodMissBound:
		return verdictUnresolved
	}
	return verdictRegressed
}

// runsOf groups a file's results of one workload, traced or not.
func runsOf(f benchFile, workload string, traced bool) []runResult {
	var runs []runResult
	for _, r := range f.Results {
		if r.Workload == workload && r.Traced == traced {
			runs = append(runs, r)
		}
	}
	return runs
}

func values(runs []runResult, metric string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.Metrics[metric].Value
	}
	return v
}

func periodMisses(runs []runResult) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.PeriodMissRatio
	}
	return v
}

func failRatio(runs []runResult) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareFiles prints the table and returns what failed.
func compareFiles(base, cur benchFile, out io.Writer) (problems []string) {
	fmt.Fprintf(out, "# base: %s\n# new:  %s\n", base.Header, cur.Header)
	fmt.Fprintf(out, "%-15s %-38s %-6s %14s %14s %16s %7s %7s  %s\n",
		"workload", "metric", "unit", "base median", "new median", "new/base", "bound", "spread", "verdict")
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	for _, name := range append(names, probesName) {
		for _, traced := range []bool{false, true} {
			b, n := runsOf(base, name, traced), runsOf(cur, name, traced)
			if len(b) == 0 {
				continue
			}
			fail := func(format string, args ...any) {
				problems = append(problems, name+": "+fmt.Sprintf(format, args...))
			}
			if len(n) == 0 {
				fail("base has %d runs (traced=%v), new has none", len(b), traced)
				continue
			}
			if base.Header.Seed != cur.Header.Seed {
				fmt.Fprintf(out, "%-15s digests not compared: the seeds differ\n", name)
			} else if b[0].Digest != n[0].Digest {
				fail("digest %.16s became %.16s: the outputs changed", b[0].Digest, n[0].Digest)
			}
			if fb, fn := failRatio(b), failRatio(n); fn > fb {
				fail("fail_ratio rose from %g to %g", fb, fn)
			}
			if pb, pn := periodMisses(b), periodMisses(n); !traced && stats.Max(pb)+stats.Max(pn) > 0 {
				mb, mn := median(pb), median(pn)
				verdict := judgePeriodMisses(pb, pn)
				if verdict == verdictRegressed {
					fail("period_miss_ratio rose from %g to %g, bound +%g", mb, mn, periodMissBound)
				}
				fmt.Fprintf(out, "%-15s %-38s %-6s %14.6g %14.6g %16s %7s %7s  %s\n",
					name, "period_miss_ratio", "ratio", mb, mn, "-", fmt.Sprintf("+%g", periodMissBound), "-", verdict)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, def := range defs {
				vb, vn := values(b, def.Name), values(n, def.Name)
				mb, mn := median(vb), median(vn)
				if mb == 0 && mn == 0 {
					continue // not on this workload's path
				}
				ratio := "-"
				if mb != 0 {
					ratio = fmt.Sprintf("%.4f of base", mn/mb)
				}
				if traced {
					// Per-layer metrics carry no bound: they explain a
					// change, they do not gate it.
					fmt.Fprintf(out, "%-15s %-38s %-6s %14.6g %14.6g %16s %7s %7s\n", name, def.Name, def.Unit, mb, mn, ratio, "-", "-")
					continue
				}
				verdict, worse, sp := judge(def, vb, vn)
				fmt.Fprintf(out, "%-15s %-38s %-6s %14.6g %14.6g %16s %6.0f%% %6.1f%%  %s\n",
					name, def.Name, def.Unit, mb, mn, ratio, def.Bound*100, sp*100, verdict)
				if verdict == verdictRegressed {
					fail("%s is %.1f%% worse than base (median %g against %g), bound %.0f%%", def.Name, worse*100, mn, mb, def.Bound*100)
				}
			}
		}
	}
	return problems
}
