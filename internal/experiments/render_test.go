package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/units"
)

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func TestSeriesAppendMonotone(t *testing.T) {
	var s series
	s.add(0, 1)
	s.add(1, 2)
	if !panics(func() { s.add(0.5, 3) }) {
		t.Error("backwards time accepted")
	}
	if len(s.Points) != 2 || s.Points[0].V != 1 || s.Points[1].V != 2 {
		t.Errorf("Points = %v", s.Points)
	}
}

func TestSeriesBetween(t *testing.T) {
	var s series
	for i := 0; i < 10; i++ {
		s.add(float64(i), float64(i*i))
	}
	sub := s.between(3, 6)
	if len(sub.Points) != 3 || sub.Points[0].T != 3 || sub.Points[2].T != 5 {
		t.Errorf("between = %+v", sub.Points)
	}
}

func TestRecorder(t *testing.T) {
	var r recorder
	a := r.series("ipc")
	a.add(0, 1.0)
	b := r.series("freq")
	b.add(0, 1000)
	if r.series("ipc") != a {
		t.Error("series not idempotent")
	}
	if len(r.all) != 2 || r.all[0].Name != "ipc" || r.all[1].Name != "freq" {
		t.Errorf("series %v, want ipc then freq", r.all)
	}
}

func TestWriteCSV(t *testing.T) {
	var r recorder
	r.series("a").add(0, 1)
	r.series("a").add(1, 2)
	r.series("b").add(1, 3)
	var sb strings.Builder
	if err := writeCSV(&sb, r.all...); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "time,a,b\n0,1,\n1,2,3\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestTableRendering(t *testing.T) {
	tab := textTable{Title: "T", Headers: []string{"name", "value"}}
	tab.addRow("gzip", "0.79")
	tab.addRow("mcf", "1")
	out := tab.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "gzip") || !strings.Contains(out, "----") {
		t.Errorf("render:\n%s", out)
	}
	// Column alignment: "value" column starts at the same offset in all rows.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	idx := strings.Index(lines[1], "value")
	if idx < 0 {
		t.Fatalf("no header: %q", lines[1])
	}
	if !strings.HasPrefix(lines[3][idx:], "0.79") {
		t.Errorf("misaligned row: %q", lines[3])
	}
}

func TestTableRowValidation(t *testing.T) {
	tab := textTable{Headers: []string{"a", "b"}}
	if !panics(func() { tab.addRow("only-one") }) {
		t.Error("short row accepted")
	}
}

func TestAsciiChart(t *testing.T) {
	s := series{Name: "freq"}
	for i := 0; i < 50; i++ {
		s.add(float64(i)*0.1, math.Sin(float64(i)/5))
	}
	out := asciiPlot(s.Name, 8, 40, &s)
	if !strings.HasPrefix(out, "freq  [") || !strings.Contains(out, "*") || strings.Contains(out, "#") {
		t.Errorf("chart:\n%s", out)
	}
	if got := asciiPlot("x", 8, 40, &series{}); got != "(no data)\n" {
		t.Errorf("empty chart = %q", got)
	}
	// Constant series must not divide by zero.
	var flat series
	flat.add(0, 5)
	flat.add(1, 5)
	if out := asciiPlot(flat.Name, 4, 10, &flat); !strings.Contains(out, "*") {
		t.Errorf("flat chart:\n%s", out)
	}
}

func TestAsciiOverlay(t *testing.T) {
	a, b := series{Name: "desired"}, series{Name: "actual"}
	for i := 0; i < 30; i++ {
		a.add(float64(i), 900)
		b.add(float64(i), 750)
	}
	out := asciiPlot("desired(*) vs actual(+)", 8, 40, &a, &b)
	if !strings.HasPrefix(out, "desired(*) vs actual(+)  [750 .. 900]\n") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Errorf("glyphs missing:\n%s", out)
	}
	// Coincident points render '#'.
	var c, d series
	c.add(0, 1)
	c.add(1, 2)
	d.add(0, 1)
	d.add(1, 2)
	if out := asciiPlot("c vs d", 4, 10, &c, &d); !strings.Contains(out, "#") {
		t.Errorf("coincident glyph missing:\n%s", out)
	}
	if got := asciiPlot("x", 8, 40, &series{}, &series{}); got != "(no data)\n" {
		t.Errorf("empty overlay = %q", got)
	}
}

func TestFormatNorm(t *testing.T) {
	cases := map[float64]string{
		1.0:  "1",
		0.79: ".79",
		0.52: ".52",
		0.99: ".99",
		1.2:  "1.20",
	}
	for in, want := range cases {
		if got := formatNorm(in); got != want {
			t.Errorf("formatNorm(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatNorm(math.NaN()); got != "-" {
		t.Errorf("formatNorm(NaN) = %q", got)
	}
}

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
	var rec recorder
	if _, err := o.fvsstRun(4, 1, prog, units.Watts(560), &rec, nil, nil); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range rec.all {
		got = append(got, s.Name)
	}
	if strings.Join(got, ",") != strings.Join(recordStepColumns, ",") {
		t.Errorf("series %v, want %v", got, recordStepColumns)
	}
	n := len(rec.all[0].Points)
	for _, s := range rec.all {
		if got := len(s.Points); got == 0 || got != n {
			t.Errorf("series %q has %d samples, want %d > 0", s.Name, got, n)
		}
	}
	if n == 0 {
		t.FailNow()
	}
	// Mid-run, with the job still running, the scheduler has throttled it.
	pw := rec.series("system-power-w").Points
	freq := rec.series("actual-mhz").Points
	if mid := n / 2; pw[mid].V >= pw[0].V || freq[mid].V >= freq[0].V {
		t.Errorf("mid-run power %v W at %v MHz, want below the start's %v W at %v MHz", pw[mid].V, freq[mid].V, pw[0].V, freq[0].V)
	}
}

// recordStepColumns are the seven series recordStep writes, in CSV
// column order.
var recordStepColumns = []string{"system-power-w", "cpu-power-w", "budget-w", "ipc", "freq-mhz", "desired-mhz", "actual-mhz"}
