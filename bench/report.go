package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchFile is what `run` and `trace` write with -out and `compare`
// reads: a header that says where and how the numbers were taken, then
// every run of every workload.
type benchFile struct {
	Header  header      `json:"header"`
	Results []runResult `json:"results"`
}

type header struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Count      int     `json:"count"`
	Setups     int     `json:"setups"`
	Traced     bool    `json:"traced"`
	// Workloads records each world's shape and repetition counts; how
	// many operations a run timed is its result's Attempted.
	Workloads []workloadHeader `json:"workloads"`
}

type workloadHeader struct {
	Name      string `json:"name"`
	Size      string `json:"size"`
	WorkUnit  string `json:"work_unit"`
	DigestOps int    `json:"digest_ops"`
}

func (h header) String() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d seed=%d seconds=%g count=%d setups=%d traced=%v",
		h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.Seed, h.Seconds, h.Count, h.Setups, h.Traced)
}

// goldenFile holds the committed digests of one seed.
type goldenFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

//go:embed golden/seed1.json
var goldenSeed1 []byte

// goldenFor returns the committed digests for seed, nil when there are
// none: such a run rests on its own repeat checks alone.
func goldenFor(seed int64) (map[string]string, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenSeed1, &g); err != nil {
		return nil, fmt.Errorf("golden/seed1.json: %w", err)
	}
	if g.Seed != seed {
		return nil, nil
	}
	return g.Digests, nil
}

type runOpts struct {
	Seed    int64
	Seconds float64
	Count   int
	Traced  bool
	// SpanDir, for a traced run, is where trace-<workload>.json goes.
	SpanDir string
}

// probesName is the workload name under which a traced file carries the
// layer probes: their micro-worlds do not depend on the workload, so
// `trace` runs them once.
const probesName = "layer-probes"

// runAll runs every workload Count times, prints each metric by name
// with its unit, and returns an error if any run was not correct. The
// runs go round the workloads, not workload by workload: the sandbox has
// slow stretches of a minute or two, and this way one costs each workload
// a run at most, which the median over the runs then ignores.
func runAll(ws []workloadDef, o runOpts, golden map[string]string, out io.Writer) (benchFile, error) {
	file := benchFile{Header: header{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: o.Seed, Seconds: o.Seconds, Count: o.Count, Setups: setups, Traced: o.Traced,
	}}
	fmt.Fprintf(out, "# %s\n", file.Header)
	for _, w := range ws {
		wh := workloadHeader{Name: w.Name, Size: fmt.Sprintf("%+v", w.Size), WorkUnit: w.WorkUnit, DigestOps: w.DigestOps}
		file.Header.Workloads = append(file.Header.Workloads, wh)
		fmt.Fprintf(out, "# %s %s work=%q digest_ops=%d\n", wh.Name, wh.Size, wh.WorkUnit, wh.DigestOps)
	}
	var bad []string
	for k := 0; k < o.Count; k++ {
		for _, w := range ws {
			res, err := measure(w, o.Seed, o.Seconds, o.Traced, golden)
			if err != nil {
				return file, fmt.Errorf("%s: %w", w.Name, err)
			}
			printResult(out, res, k, o.Count)
			if !res.Correct {
				bad = append(bad, w.Name)
			}
			if o.Traced && k == 0 {
				path := filepath.Join(o.SpanDir, "trace-"+w.Name+".json")
				if err := writeSpans(path, res.spans); err != nil {
					return file, err
				}
				fmt.Fprintf(out, "   spans of the first operation: %s\n", path)
			}
			file.Results = append(file.Results, res)
		}
	}
	if o.Traced {
		probes := runResult{Workload: probesName, Seed: o.Seed, Traced: true, Correct: true, Metrics: make(map[string]metric)}
		if err := runProbes(&probes); err != nil {
			return file, fmt.Errorf("%s: %w", probesName, err)
		}
		fmt.Fprintf(out, "== %s\n", probesName)
		printMetrics(out, probes.Metrics)
		file.Results = append(file.Results, probes)
	}
	if len(bad) > 0 {
		return file, fmt.Errorf("not correct: %s", strings.Join(bad, ", "))
	}
	return file, nil
}

func printResult(out io.Writer, res runResult, k, count int) {
	verdict := "correct"
	if !res.Correct {
		verdict = "NOT CORRECT"
	}
	fmt.Fprintf(out, "== %s run %d/%d: attempted %d, failed %d (fail_ratio %g), digest %.16s, %s\n",
		res.Workload, k+1, count, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Digest, verdict)
	for _, p := range res.Problems {
		fmt.Fprintf(out, "   problem: %s\n", p)
	}
	if w, _ := findWorkload(res.Workload); w.Period > 0 && !res.Traced {
		fmt.Fprintf(out, "   %-38s %14.6g %s\n", "period_miss_ratio", res.PeriodMissRatio, "ratio")
	}
	printMetrics(out, res.Metrics)
}

func printMetrics(out io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "   %-38s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}

// runCmd is `bench run` and `bench trace`.
func runCmd(args []string, traced bool, out io.Writer) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	o := runOpts{Traced: traced}
	fs.Int64Var(&o.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.Seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&o.Count, "count", 1, "runs per workload; compare needs several to see the run-to-run spread")
	outPath := fs.String("out", "", "write the results here as JSON")
	if traced {
		fs.StringVar(&o.SpanDir, "spans", filepath.Join("bench", "out"), "directory for trace-<workload>.json")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	golden, err := goldenFor(o.Seed)
	if err != nil {
		return err
	}
	file, runErr := runAll(workloads, o, golden, out)
	if *outPath != "" {
		if err := writeJSON(*outPath, file); err != nil {
			return errors.Join(runErr, err)
		}
	}
	return runErr
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return writeFile(path, data)
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
