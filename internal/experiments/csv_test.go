package experiments

import (
	"os"
	"path/filepath"
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
	b, err := os.ReadFile(filepath.Join(dir, "fig5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(string(b), "\n", 2)[0]
	for _, col := range []string{"time", "ipc", "freq-mhz", "system-power-w"} {
		if !strings.Contains(head, col) {
			t.Errorf("fig5.csv header %q missing %q", head, col)
		}
	}

	f9, err := Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := f9.WriteCSVTo(dir); err != nil {
		t.Fatal(err)
	}
	b, err = os.ReadFile(filepath.Join(dir, "fig9.csv"))
	if err != nil {
		t.Fatal(err)
	}
	head = strings.SplitN(string(b), "\n", 2)[0]
	if !strings.Contains(head, "desired-mhz") || !strings.Contains(head, "actual-mhz") {
		t.Errorf("fig9.csv header %q", head)
	}
	// Non-existent directory fails cleanly.
	if err := f9.WriteCSVTo(filepath.Join(dir, "missing", "deeper")); err == nil {
		t.Error("write into missing directory succeeded")
	}
}
