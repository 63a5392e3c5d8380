package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRegistryWellFormed ensures every registered experiment has a unique
// id, a description, and a runner — the invariants the generated usage and
// `list` output rely on.
func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range experiments.Registry() {
		if s.ID == "" || s.Desc == "" || s.Run == nil {
			t.Errorf("registry entry %+v incomplete", s.ID)
		}
		if seen[s.ID] {
			t.Errorf("registry id %q duplicated", s.ID)
		}
		seen[s.ID] = true
		if got, ok := experiments.Lookup(s.ID); !ok || got.ID != s.ID {
			t.Errorf("Lookup(%q) failed", s.ID)
		}
	}
	if len(experiments.IDs()) != len(seen) {
		t.Errorf("IDs() length %d != registry size %d", len(experiments.IDs()), len(seen))
	}
}

// TestRegistryRunnersProduceOutput spot-checks the cheap analytic entries
// end to end through the registry plumbing.
func TestRegistryRunnersProduceOutput(t *testing.T) {
	o := experiments.Options{Scale: 0.05, Seed: 1}
	for _, id := range []string{"table1", "worked", "ab-policies", "ab-ideal"} {
		spec, ok := experiments.Lookup(id)
		if !ok {
			t.Errorf("%s: not registered", id)
			continue
		}
		rep, err := spec.Run(o)
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if len(rep.Render()) < 40 {
			t.Errorf("%s: render too short", id)
		}
	}
}

// TestUsageListsEveryExperiment pins the anti-drift property this command
// was refactored for: the usage text is generated from the registry and
// the subcommands table, so every id, description and subcommand appears
// in it, and neither the benchmark writers retired onto `go run ./bench`
// nor the deleted counterfactual policy search do.
func TestUsageListsEveryExperiment(t *testing.T) {
	var b strings.Builder
	prev := flag.CommandLine.Output()
	flag.CommandLine.SetOutput(&b)
	defer flag.CommandLine.SetOutput(prev)
	usage()
	text := b.String()
	for _, s := range experiments.Registry() {
		if !strings.Contains(text, s.ID) {
			t.Errorf("usage text missing id %q", s.ID)
		}
		if !strings.Contains(text, s.Desc) {
			t.Errorf("usage text missing description for %q", s.ID)
		}
	}
	line, _, _ := strings.Cut(text, "\n")
	for _, c := range subcommands {
		if !strings.Contains(line, c.name+" | ") {
			t.Errorf("usage line %q missing subcommand %q", line, c.name)
		}
	}
	// Spelled in halves so a repo-wide grep for the retired names stays
	// empty.
	retired := []string{"hot" + "path", "bench" + "-out", "policy" + "-search"}
	for _, stem := range []string{"farm", "obs", "serve", "des", "net", "opt"} {
		retired = append(retired, stem+"bench")
	}
	for _, name := range retired {
		if strings.Contains(text, name) {
			t.Errorf("usage text still offers retired %q", name)
		}
	}
}

// TestSoakRejectsEmptySelection: a negative count, or zero scenarios of
// every kind, is an error before anything runs — such a soak checks
// nothing and must not report that all invariants held.
func TestSoakRejectsEmptySelection(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "-1", "-diff", "0", "-farm", "0", "-des", "0"},
		{"-seeds", "0", "-diff", "0", "-farm", "0", "-des", "0"},
	} {
		if err := runSoak(args, io.Discard); err == nil {
			t.Errorf("soak %s accepted", strings.Join(args, " "))
		}
	}
}

// TestOptGapCommand runs `experiments optgap -seeds 60 -max-gap 0.2` at
// -parallel 4 and at -parallel 2: each rendering must equal the committed
// golden, so the two equal each other. A -max-gap below the campaign's
// worst per-pass gap must fail the run with the gate's error.
func TestOptGapCommand(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "optgap_seeds60.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []string{"4", "2"} {
		var out strings.Builder
		if err := runOptGap([]string{"-seeds", "60", "-parallel", parallel, "-max-gap", "0.2"}, &out); err != nil {
			t.Fatalf("-parallel %s: %v", parallel, err)
		}
		if out.String() != string(want) {
			t.Errorf("-parallel %s differs from optgap_seeds60.golden:\n--- got ---\n%s\n--- want ---\n%s", parallel, out.String(), want)
		}
	}
	err = runOptGap([]string{"-seeds", "60", "-parallel", "2", "-max-gap", "1e-9"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "exceeds -max-gap 1e-09") {
		t.Errorf("-max-gap 1e-9: err = %v, want the gate's error", err)
	}
}
