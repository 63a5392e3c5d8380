package experiments

import "testing"

// TestServeDiurnalDrop asserts the study's qualitative claims: identical
// traffic, and fvsst strictly ahead of uniform on drop-window web SLO
// attainment, whole-run web p99 and mean power.
func TestServeDiurnalDrop(t *testing.T) {
	rep, err := ServeDiurnalDrop(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.FVSST.Offered != rep.Uniform.Offered || rep.FVSST.Offered == 0 {
		t.Fatalf("offered: fvsst %d, uniform %d", rep.FVSST.Offered, rep.Uniform.Offered)
	}
	fw, uw := rep.FVSST.Drop[0], rep.Uniform.Drop[0]
	if fw.Class != "web" || fw.Resolved == 0 {
		t.Fatalf("drop window web row malformed: %+v", fw)
	}
	if fw.Attainment <= uw.Attainment {
		t.Errorf("drop-window web attainment: fvsst %.3f not above uniform %.3f",
			fw.Attainment, uw.Attainment)
	}
	if fp, up := rep.FVSST.Final.Classes[0].P99S, rep.Uniform.Final.Classes[0].P99S; fp >= up {
		t.Errorf("web p99: fvsst %.4fs not below uniform %.4fs", fp, up)
	}
	if rep.FVSST.MeanPowerW >= rep.Uniform.MeanPowerW {
		t.Errorf("mean power: fvsst %.0fW not below uniform %.0fW",
			rep.FVSST.MeanPowerW, rep.Uniform.MeanPowerW)
	}
	// The batch class must fully complete under both policies (no
	// timeout configured, bounded queues never overflow at this load).
	for _, p := range rep.Outcomes() {
		batch := p.Final.Classes[1]
		if batch.Completed != batch.Admitted {
			t.Errorf("%s: batch completed %d of %d admitted", p.Policy, batch.Completed, batch.Admitted)
		}
	}
}

// TestServeDiurnalDeterministic: equal options give byte-identical
// reports, the property the study's cross-policy comparison rests on —
// at the test options and at `experiments -scale 0.05 -seed 7
// serve-diurnal-drop`.
func TestServeDiurnalDeterministic(t *testing.T) {
	for _, o := range []Options{testOptions(), {Scale: 0.05, Seed: 7}} {
		run := func() string {
			rep, err := ServeDiurnalDrop(o)
			if err != nil {
				t.Fatal(err)
			}
			return rep.Render()
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("seed %d: renders differ:\n%s\n---\n%s", o.Seed, a, b)
		}
	}
}
