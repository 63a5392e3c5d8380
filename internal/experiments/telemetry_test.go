package experiments

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// TestDriverTelemetry: an fvsstRun with a recorder fills the seven series
// in CSV column order, one sample per step, and they follow the traced
// CPU of a four-CPU machine: a memory-bound job there comes down from the
// f_max start, and the machine's power with it.
func TestDriverTelemetry(t *testing.T) {
	o := testOptions()
	prog, err := o.syntheticSingle(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	if _, err := o.fvsstRun(4, 1, prog, units.Watts(560), rec, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"system-power-w", "cpu-power-w", "budget-w", "ipc", "freq-mhz", "desired-mhz", "actual-mhz"}
	if got := rec.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("series %v, want %v", got, want)
	}
	n := rec.Series(want[0]).Len()
	for _, name := range want {
		if got := rec.Series(name).Len(); got == 0 || got != n {
			t.Errorf("series %q has %d samples, want %d > 0", name, got, n)
		}
	}
	if n == 0 {
		t.FailNow()
	}
	// Mid-run, with the job still running, the scheduler has throttled it.
	pw := rec.Series("system-power-w").Values()
	freq := rec.Series("actual-mhz").Values()
	if mid := n / 2; pw[mid] >= pw[0] || freq[mid] >= freq[0] {
		t.Errorf("mid-run power %v W at %v MHz, want below the start's %v W at %v MHz", pw[mid], freq[mid], pw[0], freq[0])
	}
}
