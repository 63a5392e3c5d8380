package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportGolden pins `experiments report` output — text and JSON —
// against committed goldens for a committed trace. The deterministic
// sections only: latency is wall-clock and excluded by -sections, which
// is exactly how TestReportDeterministic (cmd/fvsst-cluster) byte-compares
// two live runs.
func TestReportGolden(t *testing.T) {
	trace := filepath.Join("testdata", "trace.jsonl")
	cases := []struct {
		name   string
		args   []string
		golden string
	}{
		{"text", []string{"-sections", "energy,compliance,prediction", trace}, "report.golden"},
		{"json", []string{"-json", "-sections", "energy,compliance,prediction", trace}, "report_json.golden"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := runReport(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("report differs from %s:\n--- got ---\n%s\n--- want ---\n%s", tc.golden, out.Bytes(), want)
			}
		})
	}
}

// TestReportStdinAndErrors covers the "-" stdin path and the
// fail-closed cases: an unknown section and an empty trace.
func TestReportStdinAndErrors(t *testing.T) {
	if err := runReport([]string{"-sections", "bogus", filepath.Join("testdata", "trace.jsonl")}, &bytes.Buffer{}); err == nil {
		t.Error("unknown section accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runReport([]string{empty}, &bytes.Buffer{}); err == nil {
		t.Error("empty trace accepted")
	}

	// "-" reads the trace from stdin.
	f, err := os.Open(filepath.Join("testdata", "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	oldStdin := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = oldStdin }()
	var out bytes.Buffer
	if err := runReport([]string{"-sections", "energy", "-"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("stdin report empty")
	}
}
