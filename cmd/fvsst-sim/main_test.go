package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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
// routine timer pass. At -fail-at 0.3 the budget change lands in the same
// quantum as the 0.3 s timer pass, and only a step's last pass is
// printed, so the budget-change line is checked at 0.35 s.
func TestLogEveryZeroPrintsNoTimerDecisions(t *testing.T) {
	for _, tc := range []struct {
		failAt       string
		budgetChange bool
	}{{"0.3", false}, {"0.35", true}} {
		var out strings.Builder
		if err := run([]string{"-log-every", "0", "-fail-at", tc.failAt, "-duration", "0.5"}, &out); err != nil {
			t.Fatalf("-fail-at %s: %v", tc.failAt, err)
		}
		got := out.String()
		if !strings.Contains(got, " startup ") {
			t.Errorf("-fail-at %s: no startup decision in\n%s", tc.failAt, got)
		}
		if strings.Contains(got, " budget-change ") != tc.budgetChange {
			t.Errorf("-fail-at %s: budget-change line present = %v, want %v in\n%s",
				tc.failAt, !tc.budgetChange, tc.budgetChange, got)
		}
		if strings.Contains(got, " timer ") {
			t.Errorf("-fail-at %s: timer decision printed in\n%s", tc.failAt, got)
		}
		if !strings.Contains(got, "finished at t=0.50s") {
			t.Errorf("-fail-at %s: run did not reach 0.5 s:\n%s", tc.failAt, got)
		}
	}
}
