package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDifferentialFaultFree runs ≥20 fault-free seeds through both the
// in-process mirror and the networked stack and demands byte-identical
// decision traces: same budgets, same table power, same per-CPU
// frequencies and voltages, rendered through the same format strings.
func TestDifferentialFaultFree(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		spec := Generate(seed).FaultFree()
		d, err := RunDifferential(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !d.Equivalent {
			t.Fatalf("seed %d diverged: %+v", seed, d.Divergences[0])
		}
		if d.FaultRounds != 0 || d.InWindowDiffs != 0 {
			t.Fatalf("seed %d: fault rounds on a fault-free spec", seed)
		}
		if d.Base.Text != d.Variant.Text {
			t.Fatalf("seed %d: equivalent but full texts differ", seed)
		}
		if len(d.Base.Violations) != 0 || len(d.Variant.Violations) != 0 {
			t.Fatalf("seed %d: invariant violations during differential", seed)
		}
	}
}

// TestDifferentialFaulty feeds scenarios that do carry faults through the
// differential: traces may differ inside the declared windows (message
// faults skew remote timing) but never outside them.
func TestDifferentialFaulty(t *testing.T) {
	tested := 0
	for seed := int64(1); seed <= 30 && tested < 6; seed++ {
		spec := Generate(seed)
		if len(spec.Partitions) == 0 && len(spec.Policies) == 0 {
			continue
		}
		tested++
		d, err := RunDifferential(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !d.Equivalent {
			t.Errorf("seed %d: out-of-window divergence: %+v", seed, d.Divergences[0])
		}
		if d.FaultRounds == 0 {
			t.Errorf("seed %d: faulty spec declared no fault rounds", seed)
		}
	}
	if tested < 6 {
		t.Fatalf("only %d faulty seeds in 1..30", tested)
	}
}

func TestFirstDiff(t *testing.T) {
	if got := firstDiff("a\nb\n", "a\nc\n", "l", "r"); !strings.Contains(got, `"b"`) || !strings.Contains(got, `"c"`) {
		t.Fatalf("firstDiff = %q", got)
	}
	if got := firstDiff("x", "x", "l", "r"); got != "traces differ" {
		t.Fatalf("identical-input fallback = %q", got)
	}
}

// TestSoakClean runs a small clean campaign of all four job kinds.
func TestSoakClean(t *testing.T) {
	rep := Soak(SoakConfig{Seeds: 4, DiffSeeds: 2, FarmSeeds: 3, DESSeeds: 2, Parallel: 4, ShrinkMax: 50})
	if !rep.OK {
		t.Fatalf("clean soak failed: %+v", rep)
	}
	if len(rep.Results) != 11 {
		t.Fatalf("got %d results, want 11", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Skipped || r.Err != "" {
			t.Fatalf("unexpected skip/error: %+v", r)
		}
	}
	// The report order is deterministic regardless of worker count.
	seq := Soak(SoakConfig{Seeds: 4, DiffSeeds: 2, FarmSeeds: 3, DESSeeds: 2, Parallel: 1, ShrinkMax: 50})
	for i := range rep.Results {
		if rep.Results[i].Hash != seq.Results[i].Hash || rep.Results[i].Seed != seq.Results[i].Seed {
			t.Fatalf("result %d differs across worker counts", i)
		}
	}
}

// TestSoakSabotage verifies the campaign catches the injected Step-2
// defect and ships a minimal reproducer in the report.
func TestSoakSabotage(t *testing.T) {
	rep := Soak(SoakConfig{Seeds: 8, Parallel: 4, Sabotage: SabotageStepTwoInvert, ShrinkMax: 200})
	if rep.OK {
		t.Fatal("sabotaged soak reported OK")
	}
	shrunk := false
	for _, r := range rep.Results {
		if len(r.Violations) > 0 && r.Shrunk != nil {
			shrunk = true
			if r.Shrunk.Seed != r.Seed {
				t.Fatal("reproducer seed differs from job seed")
			}
			if r.ShrinkAttempts == 0 {
				t.Fatal("reproducer claims zero shrink attempts")
			}
		}
	}
	if !shrunk {
		t.Fatal("no failing seed carried a shrunk reproducer")
	}
	// With DumpDir empty no trace is written, not even to the working
	// directory.
	for _, r := range rep.Results {
		if r.Trace != "" || r.TraceErr != "" {
			t.Fatalf("seed %d wrote a trace with DumpDir empty: %q %q", r.Seed, r.Trace, r.TraceErr)
		}
	}
	if m, _ := filepath.Glob("cluster-seed*.jsonl"); len(m) > 0 {
		t.Fatalf("soak without DumpDir wrote %v", m)
	}
}

// TestSoakTraceDump: with DumpDir set, every violating cluster seed
// writes cluster-seed<N>.jsonl, and nothing else lands in the directory.
// Each trace replays through obs.ReplayJSONL and holds the whole run —
// one schedule event per round, in order — so the last violation's pass
// is there with a pass ID joining it to its span tree.
func TestSoakTraceDump(t *testing.T) {
	dir := t.TempDir()
	rep := Soak(SoakConfig{Seeds: 4, Parallel: 2, Sabotage: SabotageStepTwoInvert, DumpDir: dir})
	if rep.OK {
		t.Fatal("sabotaged soak reported OK")
	}
	var want []string
	for _, r := range rep.Results {
		if len(r.Violations) == 0 {
			if r.Trace != "" {
				t.Fatalf("passing seed %d wrote a trace", r.Seed)
			}
			continue
		}
		if r.Trace == "" || r.TraceErr != "" {
			t.Fatalf("violating seed %d has no trace (err %q)", r.Seed, r.TraceErr)
		}
		want = append(want, filepath.Base(r.Trace))
		f, err := os.Open(r.Trace)
		if err != nil {
			t.Fatal(err)
		}
		var log eventLog
		_, err = obs.ReplayJSONL(f, &log)
		f.Close()
		if err != nil {
			t.Fatalf("seed %d trace: %v", r.Seed, err)
		}
		var passes []obs.Event
		for _, e := range log.all() {
			if e.Type == obs.EventSchedule {
				passes = append(passes, e)
			}
		}
		if len(passes) != r.Rounds {
			t.Fatalf("seed %d trace holds %d schedule events, want one per round (%d)", r.Seed, len(passes), r.Rounds)
		}
		for i, e := range passes {
			if e.PassID != uint64(i+1) {
				t.Fatalf("seed %d: schedule event %d has pass ID %d, want %d", r.Seed, i, e.PassID, i+1)
			}
		}
		last := r.Violations[len(r.Violations)-1]
		found := false
		for _, e := range passes {
			if e.At == last.At && e.PassID > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("seed %d trace is missing the violating pass at t=%v", r.Seed, last.At)
		}
	}
	if len(want) == 0 {
		t.Fatal("no violating seed produced a trace")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dump dir holds %v, want exactly the violating seeds' traces %v", got, want)
	}
}

// TestSoakTraceDumpError: a trace that cannot be written is reported on
// its seed, not dropped, and is no job error — the seed's violations
// still count.
func TestSoakTraceDumpError(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := Soak(SoakConfig{Seeds: 2, Sabotage: SabotageStepTwoInvert, DumpDir: notDir})
	if rep.Violations == 0 || rep.Errors != 0 {
		t.Fatalf("got %d violations, %d errors; want violations and no errors", rep.Violations, rep.Errors)
	}
	for _, r := range rep.Results {
		if len(r.Violations) == 0 {
			continue
		}
		if r.Trace != "" || r.TraceErr == "" || r.Err != "" {
			t.Fatalf("seed %d: trace %q, trace error %q, err %q; want only a trace error", r.Seed, r.Trace, r.TraceErr, r.Err)
		}
	}
}

func TestSoakWallBudget(t *testing.T) {
	rep := Soak(SoakConfig{Seeds: 5, FarmSeeds: 5, Parallel: 2, Wall: time.Nanosecond})
	if rep.Skipped != len(rep.Results) {
		t.Fatalf("expired wall budget skipped %d/%d jobs", rep.Skipped, len(rep.Results))
	}
	for _, r := range rep.Results {
		if !r.Skipped {
			t.Fatalf("job ran past the deadline: %+v", r)
		}
	}
	// Skipping is reported, never silently treated as failure.
	if !rep.OK {
		t.Fatal("skipped jobs flagged the campaign as failed")
	}
}
