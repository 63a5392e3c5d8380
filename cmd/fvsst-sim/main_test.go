package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

func TestParseJobKnownApps(t *testing.T) {
	for _, name := range []string{"gzip", "gap", "mcf", "health"} {
		p, err := parseJob(name, 0.1)
		if err != nil {
			t.Errorf("parseJob(%q): %v", name, err)
			continue
		}
		if p.Name != name {
			t.Errorf("parseJob(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := parseJob("doom", 1); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestParseJobSynthetic(t *testing.T) {
	p, err := parseJob("synth:25", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("synthetic job invalid: %v", err)
	}
	if _, err := parseJob("synth:abc", 1); err == nil {
		t.Error("bad intensity accepted")
	}
	if _, err := parseJob("synth:150", 1); err == nil {
		t.Error("out-of-range intensity accepted")
	}
}

func TestParseJobFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prof.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.SaveProgram(f, workload.Mcf(0.01)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p, err := parseJob("file:"+path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mcf" {
		t.Errorf("loaded name = %q", p.Name)
	}
	if _, err := parseJob("file:/does/not/exist.json", 1); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLogEveryZeroPrintsNoTimerDecisions runs the simulator with
// -log-every 0, which used to divide by zero on the first timer pass: it
// must finish, print the startup and budget-change passes, and print no
// routine timer pass. At -fail-at 0.3 the budget change shares its
// quantum with the 0.3 s timer pass, and its line must still print.
func TestLogEveryZeroPrintsNoTimerDecisions(t *testing.T) {
	for _, failAt := range []string{"0.3", "0.35"} {
		var out strings.Builder
		if err := run([]string{"-log-every", "0", "-fail-at", failAt, "-duration", "0.5"}, &out); err != nil {
			t.Fatalf("-fail-at %s: %v", failAt, err)
		}
		got := out.String()
		for _, want := range []string{" startup ", " budget-change ", "finished at t=0.50s"} {
			if !strings.Contains(got, want) {
				t.Errorf("-fail-at %s: no %q in\n%s", failAt, want, got)
			}
		}
		if strings.Contains(got, " timer ") {
			t.Errorf("-fail-at %s: timer decision printed in\n%s", failAt, got)
		}
	}
}

// TestFailAtReportsBudgetChange is the supply-failure scenario end to end:
// two runs of -fail-at 1 print the same bytes, including the budget-change
// pass that shares its quantum with the 1 s timer pass, and the closing
// report counts that one budget change.
func TestFailAtReportsBudgetChange(t *testing.T) {
	var first, second strings.Builder
	if err := run([]string{"-fail-at", "1"}, &first); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fail-at", "1"}, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("two runs differ:\n%s\n---\n%s", first.String(), second.String())
	}
	if !regexp.MustCompile(`(?m)^t= *1\.00s budget-change `).MatchString(first.String()) {
		t.Errorf("no 1.00s budget-change line in\n%s", first.String())
	}
	if !strings.Contains(first.String(), "  budget-change=1  ") {
		t.Errorf("closing report counts no budget-change=1:\n%s", first.String())
	}
}

// TestClosingBlockIsTheReport: the block run prints at exit, before the
// trace's own line, is what `experiments report -sections
// compliance,residency` prints for the run's -trace — the trace replayed
// into a fresh ledger and its summary rendered with those sections — for
// the default run and for -fail-at 1. A -duration that allows no pass is
// refused before any trace exists, so there is no empty block to compare.
func TestClosingBlockIsTheReport(t *testing.T) {
	for _, args := range [][]string{nil, {"-fail-at", "1"}} {
		tracePath := filepath.Join(t.TempDir(), "sim.jsonl")
		var out strings.Builder
		if err := run(append(args, "-trace", tracePath), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		f, err := os.Open(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		ledger := obs.NewLedger()
		_, err = obs.ReplayJSONL(f, ledger)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		sections, err := obs.ParseSections("compliance,residency")
		if err != nil {
			t.Fatal(err)
		}
		var report strings.Builder
		if err := ledger.Summary().WriteText(&report, sections); err != nil {
			t.Fatal(err)
		}
		// The block follows a blank line and precedes the line the trace
		// output prints when it is flushed.
		want := "\n\n" + report.String() + "decision trace written to " + tracePath + "\n"
		if got := out.String(); !strings.HasSuffix(got, want) {
			t.Errorf("%v: output\n%s\ndoes not close with the trace's report\n%s", args, got, want)
		}
		if !strings.Contains(report.String(), "\nresidency\n") || !strings.Contains(report.String(), "cpu3 ") {
			t.Errorf("%v: report has no residency rows:\n%s", args, report.String())
		}
	}
	// A duration that runs no pass would close with an empty report on an
	// empty trace, which the report rejects: run refuses it before it
	// opens the trace.
	for _, d := range []string{"0", "-1", "NaN", "+Inf"} {
		tracePath := filepath.Join(t.TempDir(), "sim.jsonl")
		var out strings.Builder
		if err := run([]string{"-duration", d, "-trace", tracePath}, &out); err == nil {
			t.Errorf("-duration %s accepted:\n%s", d, out.String())
		}
		if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
			t.Errorf("-duration %s left a trace file (stat: %v)", d, err)
		}
	}
}

// TestRejectsBadScale: a -scale that is not finite and positive used to
// run, a scale ≤ 0 silently as 1 and NaN or ±Inf as 2⁶³ instructions a
// phase. run refuses it before it opens the trace.
func TestRejectsBadScale(t *testing.T) {
	for _, s := range []string{"0", "-1", "NaN", "+Inf", "-Inf"} {
		tracePath := filepath.Join(t.TempDir(), "sim.jsonl")
		var out strings.Builder
		err := run([]string{"-scale", s, "-duration", "0.3", "-trace", tracePath}, &out)
		if err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Errorf("-scale %s: err %v, want a -scale error; output:\n%s", s, err, out.String())
		}
		if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
			t.Errorf("-scale %s left a trace file (stat: %v)", s, err)
		}
	}
}
