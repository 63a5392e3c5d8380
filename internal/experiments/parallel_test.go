package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunAllParallelDeterminism pins the harness's core property: the same
// Options produce byte-identical rendered reports at any worker count,
// because every experiment derives all randomness from Options.Seed with
// fixed offsets and shares no mutable state (see the RunAll doc for the
// seeding convention). Table2 exercises the single-node path, cluster the
// multi-node coordinator, farm-powerfail the hierarchical allocator.
func TestRunAllParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run too slow for -short")
	}
	ids := []string{"table2", "cluster", "farm-powerfail"}
	opts := testOptions()

	render := func(results []Result) []string {
		t.Helper()
		out := make([]string, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.ID, r.Err)
			}
			out[i] = r.Rendered
		}
		return out
	}

	first := render(RunAll(opts, ids, 4))
	second := render(RunAll(opts, ids, 4))
	sequential := render(RunAll(opts, ids, 1))
	for i, id := range ids {
		if first[i] != second[i] {
			t.Errorf("%s: two parallel-4 runs differ", id)
		}
		if first[i] != sequential[i] {
			t.Errorf("%s: parallel-4 differs from sequential", id)
		}
		if len(first[i]) == 0 {
			t.Errorf("%s: empty render", id)
		}
	}
}

// TestRunAllMatchesSeed1Golden pins every experiment at paper scale: the
// text `experiments -seed 1 all` prints, rendered at 1 and at 4 workers,
// must equal the committed file byte for byte. A change that means to
// move a printed digit regenerates it with
//
//	go run ./cmd/experiments -seed 1 all > internal/experiments/testdata/all_seed1.golden
func TestRunAllMatchesSeed1Golden(t *testing.T) {
	matchGolden(t, "all_seed1.golden", Options{Scale: 1, Seed: 1}, IDs())
}

// mcGoldenIDs are the experiments whose machines execute under the
// Monte-Carlo model when Options.MonteCarlo is set, on every CPU they
// run: the hot idle loop, the jobs and the predictor study of ab-exec.
var mcGoldenIDs = []string{"table2", "fig4", "fig5", "fig7", "fig9", "ab-idle", "ab-masking", "ab-epsilon", "ab-exec"}

// TestRunAllMonteCarloMatchesGolden pins the Monte-Carlo execution model's
// draws through every CPU of those experiments at 1 and at 4 workers. A
// change that means to move a printed digit regenerates it with
//
//	go run ./cmd/experiments -mc -scale 0.05 -seed 1 table2 fig4 fig5 fig7 fig9 ab-idle ab-masking ab-epsilon ab-exec > internal/experiments/testdata/mc_seed1.golden
func TestRunAllMonteCarloMatchesGolden(t *testing.T) {
	matchGolden(t, "mc_seed1.golden", Options{Scale: 0.05, Seed: 1, MonteCarlo: true}, mcGoldenIDs)
}

// matchGolden renders ids under opts as `experiments` prints them, at 1
// and at 4 workers, and fails at the first line that differs from
// testdata/name.
func matchGolden(t *testing.T, name string, opts Options, ids []string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 4} {
		var b strings.Builder
		for i, r := range RunAll(opts, ids, parallel) {
			if r.Err != nil {
				t.Fatalf("parallel %d: %v", parallel, r.Err)
			}
			if i > 0 {
				b.WriteString(strings.Repeat("=", 78) + "\n")
			}
			b.WriteString(r.Rendered)
		}
		got := b.String()
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("parallel %d: line %d differs from testdata/%s:\n got: %q\nwant: %q", parallel, i+1, name, g, w)
				break
			}
		}
	}
}

// benchIDs are the cheap analytic experiments — enough work to exercise
// the pool without turning `make bench` into a full paper regeneration.
var benchIDs = []string{"table1", "worked", "ab-policies", "ab-ideal", "ab-idle", "ab-masking"}

func benchRunAll(b *testing.B, parallel int) {
	opts := testOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range RunAll(opts, benchIDs, parallel) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkRunAllSequential / BenchmarkRunAllParallel4 compare the harness
// at 1 vs 4 workers; on a ≥4-core box the parallel run should approach the
// worker-count speedup since experiments share no state.
func BenchmarkRunAllSequential(b *testing.B) { benchRunAll(b, 1) }
func BenchmarkRunAllParallel4(b *testing.B)  { benchRunAll(b, 4) }

// TestRunAllOrderAndErrors checks input-order results and the error paths:
// an unknown id is reported in place without failing the whole run.
func TestRunAllOrderAndErrors(t *testing.T) {
	results := RunAll(testOptions(), []string{"worked", "no-such-id", "table1"}, 2)
	if len(results) != 3 {
		t.Fatalf("%d results for 3 ids", len(results))
	}
	if results[0].ID != "worked" || results[2].ID != "table1" {
		t.Errorf("results out of input order: %q, %q", results[0].ID, results[2].ID)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("valid ids errored: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("unknown id did not error")
	}
	if results[0].Rendered == "" || results[0].WallSeconds < 0 {
		t.Error("missing render or negative wall time")
	}
}
