package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestWriteCSVToExportsTraces(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()

	f5, err := Figure5(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := f5.WriteCSVTo(dir); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range f5.rec.all {
		names = append(names, s.Name)
	}
	if strings.Join(names, ",") != strings.Join(recordStepColumns, ",") {
		t.Errorf("fig5 series %v, want recordStep's %v", names, recordStepColumns)
	}
	checkCSV(t, filepath.Join(dir, "fig5.csv"), f5.rec.all...)

	f9, err := Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := f9.WriteCSVTo(dir); err != nil {
		t.Fatal(err)
	}
	checkCSV(t, filepath.Join(dir, "fig9.csv"), f9.desired, f9.actual)
	// Non-existent directory fails cleanly.
	if err := f9.WriteCSVTo(filepath.Join(dir, "missing", "deeper")); err == nil {
		t.Error("write into missing directory succeeded")
	}
}

// checkCSV requires the file at path to be ss as a wide CSV: a header of
// "time" and the series names in order, then one row per distinct
// timestamp in ascending order, each cell the series' point at that time
// formatted %g, or empty where the series has no point there.
func checkCSV(t *testing.T, path string, ss ...*series) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	header := []string{"time"}
	byT := make([]map[float64]float64, len(ss))
	times := map[float64]bool{}
	for i, s := range ss {
		header = append(header, s.Name)
		byT[i] = map[float64]float64{}
		for _, p := range s.Points {
			byT[i][p.T] = p.V
			times[p.T] = true
		}
	}
	if lines[0] != strings.Join(header, ",") {
		t.Fatalf("%s header %q, want %q", path, lines[0], strings.Join(header, ","))
	}
	if rows := len(lines) - 1; rows != len(times) || rows == 0 {
		t.Fatalf("%s has %d rows, want one per distinct timestamp (%d)", path, rows, len(times))
	}
	prev := 0.0
	for n, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			t.Fatalf("%s row %d has %d cells, want %d: %q", path, n+1, len(cells), len(header), line)
		}
		tm, err := strconv.ParseFloat(cells[0], 64)
		if err != nil || !times[tm] || (n > 0 && tm <= prev) {
			t.Fatalf("%s row %d time %q is not the next distinct timestamp after %g", path, n+1, cells[0], prev)
		}
		prev = tm
		for i, s := range ss {
			want := ""
			if v, ok := byT[i][tm]; ok {
				want = fmt.Sprintf("%g", v)
			}
			if cells[i+1] != want {
				t.Fatalf("%s row %d (t=%g) %s = %q, want %q", path, n+1, tm, s.Name, cells[i+1], want)
			}
		}
	}
}
