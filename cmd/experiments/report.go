package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
)

// runReport renders the energy & compliance ledger from a JSONL trace,
// one section per name of obs.AllSections, which -sections selects from.
// Every section but latency integrates over simulated time only, so two
// runs of the same seed render byte-identical reports; latency is
// wall-clock, and a comparison selects the other sections.
func runReport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	sectionsSpec := fs.String("sections", "all", "comma-separated report sections ("+strings.Join(obs.AllSections, ", ")+"; \"all\")")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: experiments report [flags] <trace.jsonl | ->\n\nRenders the energy & compliance ledger from a JSONL trace (fvsst-sim\nor fvsst-cluster -trace output). \"-\" reads the trace from stdin.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one trace path (or - for stdin)")
	}
	sections, err := obs.ParseSections(*sectionsSpec)
	if err != nil {
		return err
	}

	var in io.Reader = os.Stdin
	if path := fs.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	ledger := obs.NewLedger()
	n, err := obs.ReplayJSONL(in, ledger)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("trace is empty")
	}

	sum := ledger.Summary()
	if *jsonOut {
		data, err := json.MarshalIndent(sum.Filter(sections), "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", data)
		return err
	}
	return sum.WriteText(out, sections)
}
