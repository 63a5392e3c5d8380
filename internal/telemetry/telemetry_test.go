package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesAppendMonotone(t *testing.T) {
	var s Series
	if err := s.Append(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(0.5, 3); err == nil {
		t.Error("backwards time accepted")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.Values(); got[0] != 1 || got[1] != 2 {
		t.Errorf("Values = %v", got)
	}
}

func TestSeriesBetween(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.MustAppend(float64(i), float64(i*i))
	}
	sub := s.Between(3, 6)
	if sub.Len() != 3 || sub.Points[0].T != 3 || sub.Points[2].T != 5 {
		t.Errorf("Between = %+v", sub.Points)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	a := r.Series("ipc")
	a.MustAppend(0, 1.0)
	b := r.Series("freq")
	b.MustAppend(0, 1000)
	if r.Series("ipc") != a {
		t.Error("Series not idempotent")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "ipc" || names[1] != "freq" {
		t.Errorf("Names = %v", names)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	r.Series("a").MustAppend(0, 1)
	r.Series("a").MustAppend(1, 2)
	r.Series("b").MustAppend(1, 3)
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "time,a,b\n0,1,\n1,2,3\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "T", Headers: []string{"name", "value"}}
	tab.MustAddRow("gzip", "0.79")
	tab.MustAddRow("mcf", "1")
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
	tab := Table{Headers: []string{"a", "b"}}
	if err := tab.AddRow("only-one"); err == nil {
		t.Error("short row accepted")
	}
}

func TestAsciiChart(t *testing.T) {
	var s Series
	s.Name = "freq"
	for i := 0; i < 50; i++ {
		s.MustAppend(float64(i)*0.1, math.Sin(float64(i)/5))
	}
	out := AsciiChart(&s, 8, 40)
	if !strings.Contains(out, "freq") || !strings.Contains(out, "*") {
		t.Errorf("chart:\n%s", out)
	}
	if got := AsciiChart(&Series{}, 8, 40); got != "(no data)\n" {
		t.Errorf("empty chart = %q", got)
	}
	// Constant series must not divide by zero.
	var flat Series
	flat.MustAppend(0, 5)
	flat.MustAppend(1, 5)
	if out := AsciiChart(&flat, 4, 10); !strings.Contains(out, "*") {
		t.Errorf("flat chart:\n%s", out)
	}
}

func TestAsciiOverlay(t *testing.T) {
	var a, b Series
	a.Name, b.Name = "desired", "actual"
	for i := 0; i < 30; i++ {
		a.MustAppend(float64(i), 900)
		b.MustAppend(float64(i), 750)
	}
	out := AsciiOverlay(&a, &b, 8, 40)
	if !strings.Contains(out, "desired(*) vs actual(+)") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Errorf("glyphs missing:\n%s", out)
	}
	// Coincident points render '#'.
	var c, d Series
	c.MustAppend(0, 1)
	c.MustAppend(1, 2)
	d.MustAppend(0, 1)
	d.MustAppend(1, 2)
	if out := AsciiOverlay(&c, &d, 4, 10); !strings.Contains(out, "#") {
		t.Errorf("coincident glyph missing:\n%s", out)
	}
	if got := AsciiOverlay(&Series{}, &Series{}, 8, 40); got != "(no data)\n" {
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
		if got := FormatNorm(in); got != want {
			t.Errorf("FormatNorm(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatNorm(math.NaN()); got != "-" {
		t.Errorf("FormatNorm(NaN) = %q", got)
	}
}
