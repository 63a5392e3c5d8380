// Command bench is the repository's one benchmark: six named workloads,
// end-to-end metrics measured with nothing attached, and a separate
// traced run that yields the per-layer numbers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	// go 1.24 sizes GOMAXPROCS from the host, not the container quota;
	// the sandbox has 2 cores.
	runtime.GOMAXPROCS(2)
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runCmd(args[1:], false, os.Stdout)
		case "trace":
			return runCmd(args[1:], true, os.Stdout)
		case "compare":
			return compareCmd(args[1:], os.Stdout)
		}
	}
	return single(args)
}

// single is BENCHMARK.json's command, the pipeline's entry: one workload,
// one run, the result as the last line of standard output.
func single(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	golden, err := goldenFor(*seed)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, golden)
	if err != nil {
		return err
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
