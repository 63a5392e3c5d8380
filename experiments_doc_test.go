package repro_test

// The EXPERIMENTS.md drift guard. Every decimal that EXPERIMENTS.md quotes
// as measured must be a number the seed-1 golden of `experiments all`
// prints, rounded to the places quoted. The paper's own values are marked
// in the file itself: a table column whose header starts with "paper", or
// the word right after the word "paper" in text. Section references such
// as §7.3 are not quotes.

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

const (
	experimentsDoc    = "EXPERIMENTS.md"
	experimentsGolden = "internal/experiments/testdata/all_seed1.golden"
)

// decimalRE matches a decimal with or without its leading zero (0.84, .84).
var decimalRE = regexp.MustCompile(`\d*\.\d+`)

// decimals returns the decimals in s, each with a leading zero, skipping
// those glued to a letter, a dot or a section sign (§4.2, v1.2).
func decimals(s string) []string {
	var out []string
	for _, loc := range decimalRE.FindAllStringIndex(s, -1) {
		if r, _ := utf8.DecodeLastRuneInString(s[:loc[0]]); r == '.' || r == '§' || unicode.IsLetter(r) {
			continue
		}
		d := s[loc[0]:loc[1]]
		if d[0] == '.' {
			d = "0" + d
		}
		out = append(out, d)
	}
	return out
}

// measuredDecimals returns the decimals doc quotes as measured, with the
// line each sits on.
func measuredDecimals(doc string) (quotes []string, lines []int) {
	var paperCols map[int]bool // columns of the current table headed "paper …"
	inTable := false
	for i, line := range strings.Split(doc, "\n") {
		text := line
		if strings.HasPrefix(line, "|") {
			cells := strings.Split(strings.Trim(line, "| "), "|")
			switch {
			case !inTable:
				inTable = true
				paperCols = map[int]bool{}
				for c, h := range cells {
					if strings.HasPrefix(strings.ToLower(strings.TrimSpace(h)), "paper") {
						paperCols[c] = true
					}
				}
				continue
			case strings.HasPrefix(strings.TrimSpace(cells[0]), "---"):
				continue
			}
			var kept []string
			for c, cell := range cells {
				if !paperCols[c] {
					kept = append(kept, cell)
				}
			}
			text = strings.Join(kept, " ")
		} else {
			inTable = false
		}
		afterPaper := false
		for _, w := range strings.Fields(text) {
			if !afterPaper {
				for _, d := range decimals(w) {
					quotes = append(quotes, d)
					lines = append(lines, i+1)
				}
			}
			afterPaper = strings.ToLower(strings.Trim(w, "(:*")) == "paper"
		}
	}
	return quotes, lines
}

// printedDecimals returns every rounding of every decimal in golden: 0.954
// yields 1.0, 0.95 and 0.954.
func printedDecimals(t *testing.T, golden string) map[string]bool {
	out := map[string]bool{}
	for _, d := range decimalRE.FindAllString(golden, -1) {
		v, err := strconv.ParseFloat(d, 64)
		if err != nil {
			t.Fatalf("golden decimal %q: %v", d, err)
		}
		places := len(d) - strings.IndexByte(d, '.') - 1
		for k := 1; k <= places; k++ {
			out[strconv.FormatFloat(v, 'f', k, 64)] = true
		}
	}
	return out
}

func TestExperimentsDocMatchesGolden(t *testing.T) {
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	printed := printedDecimals(t, string(golden))
	quotes, lines := measuredDecimals(string(doc))
	// A parser that skipped every table or every line would pass vacuously;
	// the file quotes well over this many measured decimals.
	if len(quotes) < 50 {
		t.Fatalf("found only %d measured decimals in %s", len(quotes), experimentsDoc)
	}
	for i, q := range quotes {
		if !printed[q] {
			t.Errorf("%s:%d quotes %s as measured, but %s prints no number that rounds to it",
				experimentsDoc, lines[i], q, experimentsGolden)
		}
	}
}

func TestExperimentsDocPaperValuesSkipped(t *testing.T) {
	doc := strings.Join([]string{
		"| x | paper a | meas a |",
		"|---|---|---|",
		"| 1 | 0.128 → .008 | 0.029 |",
		"",
		"The paper's 1.5 (paper 0.81/0.72 vs our 0.95), §4.2, v1.2.",
	}, "\n")
	quotes, _ := measuredDecimals(doc)
	if got, want := strings.Join(quotes, " "), "0.029 1.5 0.95"; got != want {
		t.Errorf("measured decimals %q, want %q", got, want)
	}
}
