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
// pass that shares its quantum with the 1 s timer pass, and the -trace of
// such a run, replayed into the ledger and rendered the way `experiments
// report` renders it, counts that one budget change.
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

	tracePath := filepath.Join(t.TempDir(), "sim.jsonl")
	if err := run([]string{"-fail-at", "1", "-trace", tracePath}, new(strings.Builder)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ledger := obs.NewLedger()
	if _, err := obs.ReplayJSONL(f, ledger); err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	if err := ledger.Summary().WriteText(&report, obs.AllSections); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "budget-change=1") {
		t.Errorf("report counts no budget-change=1:\n%s", report.String())
	}
}
