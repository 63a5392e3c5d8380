package main

import (
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
	fs, _ := flags(&b)
	fs.Usage()
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

// TestRunRejectsBadSelection: a -scale that is not finite and positive,
// an unknown id and a -run that matches no selected id are errors before
// anything runs or prints. A NaN scale once hung `experiments all`, and
// the others ran silently or failed with a misleading deadline error.
func TestRunRejectsBadSelection(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "NaN", "table1"},
		{"-scale", "0", "table1"},
		{"-scale", "-1", "table1"},
		{"-scale", "+Inf", "table1"},
		{"-run", "nomatch", "all"},
		{"no-such-id"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil || out.Len() > 0 {
			t.Errorf("experiments %s: err = %v, printed %d bytes", strings.Join(args, " "), err, out.Len())
		}
	}
	var out strings.Builder
	if err := run([]string{"-scale", "0.05", "-run", "^table1$", "all"}, &out); err != nil || !strings.HasPrefix(out.String(), "Table 1") {
		t.Errorf("-run ^table1$ all: err = %v, output %q", err, out.String())
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

// TestSoakTraceRoundTrip: a sabotaged soak fails and prints one
// "trace:" line per violating seed, naming a file in -dump-dir that
// experiments report renders.
func TestSoakTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := runSoak([]string{"-seeds", "4", "-diff", "0", "-farm", "0", "-des", "0", "-shrink", "0",
		"-sabotage", "step2-invert", "-dump-dir", dir}, &out)
	if err == nil {
		t.Fatalf("sabotaged soak exited 0:\n%s", out.String())
	}
	var violating int
	var traces []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "  cluster ") && strings.Contains(line, "violation(s)") {
			violating++
		}
		if path, ok := strings.CutPrefix(line, "    trace: "); ok {
			traces = append(traces, path)
		}
	}
	if violating == 0 || len(traces) != violating {
		t.Fatalf("%d violating seeds, %d trace lines; want one each:\n%s", violating, len(traces), out.String())
	}
	for _, path := range traces {
		if filepath.Dir(path) != dir {
			t.Fatalf("trace %s is outside -dump-dir %s", path, dir)
		}
		var rep strings.Builder
		if err := runReport([]string{"-sections", "compliance", path}, &rep); err != nil {
			t.Fatalf("report %s: %v", path, err)
		}
		if !strings.HasPrefix(rep.String(), "compliance\n") {
			t.Fatalf("report %s rendered:\n%s", path, rep.String())
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
