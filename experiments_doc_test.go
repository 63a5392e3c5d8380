package repro_test

// The EXPERIMENTS.md drift guard. Every decimal that EXPERIMENTS.md quotes
// as measured must be a number the seed-1 golden of `experiments all`
// prints in that experiment's own block, rounded to the places quoted (in
// a table row that names a line of the block, on that line). The paper's
// own values are marked in the file itself: a table column whose header
// starts with "paper", or the word right after the word "paper" in text.
// Section references such as §7.3 are not quotes.

import (
	"os"
	"regexp"
	"sort"
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

// quote is one decimal EXPERIMENTS.md quotes as measured.
type quote struct {
	value   string // with a leading zero
	line    int
	section string // the title of the ## heading above it ("" before the first)
	row     string // the first cell of the table row it sits in, or ""
}

// headingTitle is a heading's or a golden block's first line up to its
// first " — " or " (": "Table 3 — applications …" and "§5 worked example
// (budget …)" give "Table 3" and "§5 worked example".
func headingTitle(s string) string {
	for _, sep := range []string{" — ", " ("} {
		if i := strings.Index(s, sep); i >= 0 {
			s = s[:i]
		}
	}
	return strings.TrimSpace(s)
}

// measuredQuotes returns the decimals doc quotes as measured.
func measuredQuotes(doc string) []quote {
	var out []quote
	var paperCols map[int]bool // columns of the current table headed "paper …"
	inTable := false
	section := ""
	for i, line := range strings.Split(doc, "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			section = headingTitle(h)
		}
		text, row := line, ""
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
			text, row = strings.Join(kept, " "), strings.TrimSpace(cells[0])
		} else {
			inTable = false
		}
		afterPaper := false
		for _, w := range strings.Fields(text) {
			if !afterPaper {
				for _, d := range decimals(w) {
					out = append(out, quote{value: d, line: i + 1, section: section, row: row})
				}
			}
			afterPaper = strings.ToLower(strings.Trim(w, "(:*")) == "paper"
		}
	}
	return out
}

// goldenBlocks splits golden at its ===== rules into each experiment's
// lines, keyed by title: the first line up to its colon, or its
// headingTitle when it has none ("Table 3", "Ablation", "§5 worked
// example"). Titles repeat: the ablations print seven blocks.
func goldenBlocks(golden string) map[string][]string {
	out := map[string][]string{}
	var cur []string
	flush := func() {
		if len(cur) == 0 {
			return
		}
		title := cur[0]
		if i := strings.IndexByte(title, ':'); i >= 0 {
			title = title[:i]
		}
		title = headingTitle(title)
		out[title] = append(out[title], cur...)
		cur = nil
	}
	for _, line := range strings.Split(golden, "\n") {
		if strings.HasPrefix(line, "=====") {
			flush()
			continue
		}
		cur = append(cur, line)
	}
	flush()
	return out
}

// sectionBlocks names the golden blocks of each EXPERIMENTS.md section
// whose heading is not their title. The motivating scenario is printed by
// examples/powerfail, not by experiments all, so its quotes are held to
// the golden as a whole (nil).
var sectionBlocks = map[string][]string{
	"Figures 9 + 10": {"Figure 9"}, // the Figure 10 zoom is a slice of the same traces
	"Ablations":      {"Ablation"},
	"Serving: budget drop across the diurnal peak": {"Serve diurnal drop"},
	"Serving: a hot cluster":                       {"Serve hotspot"},
	"Motivating scenario":                          nil,
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

// TestExperimentsDocMatchesGolden checks each quote against its own
// experiment: the golden blocks its section maps to and, for a table row
// whose first cell starts exactly one line of those blocks, that line
// alone.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	blocks := goldenBlocks(string(golden))
	whole := strings.Split(string(golden), "\n")
	// scope is the golden lines a section's quotes are held to.
	scope := func(section string) []string {
		titles, mapped := sectionBlocks[section]
		if !mapped {
			titles = []string{section}
		} else if titles == nil {
			return whole
		}
		var lines []string
		for _, title := range titles {
			if blocks[title] == nil {
				t.Fatalf("%s section %q: the golden has no block titled %q", experimentsDoc, section, title)
			}
			lines = append(lines, blocks[title]...)
		}
		return lines
	}
	headings := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			headings[headingTitle(h)] = true
			scope(headingTitle(h))
		}
	}
	for section := range sectionBlocks {
		if !headings[section] {
			t.Errorf("sectionBlocks maps %q, which %s has no heading for", section, experimentsDoc)
		}
	}

	quotes := measuredQuotes(string(doc))
	// A parser that skipped every table or every line would pass vacuously;
	// the file quotes well over this many measured decimals.
	if len(quotes) < 50 {
		t.Fatalf("found only %d measured decimals in %s", len(quotes), experimentsDoc)
	}
	printed := map[string]map[string]bool{} // by section, then section + "|" + row
	rowBound := 0
	for _, q := range quotes {
		if q.section == "" {
			t.Errorf("%s:%d quotes %s before any section", experimentsDoc, q.line, q.value)
			continue
		}
		lines, key := scope(q.section), q.section
		if q.row != "" {
			var match []string
			for _, l := range lines {
				if strings.HasPrefix(l, q.row+" ") {
					match = append(match, l)
				}
			}
			if len(match) == 1 {
				lines, key = match, q.section+"|"+q.row
				rowBound++
			}
		}
		if printed[key] == nil {
			printed[key] = printedDecimals(t, strings.Join(lines, "\n"))
		}
		if !printed[key][q.value] {
			t.Errorf("%s:%d quotes %s as measured, but the %s lines of %s print no number that rounds to it",
				experimentsDoc, q.line, q.value, key, experimentsGolden)
		}
	}
	// Table 2's and Table 3's rows carry the labels the golden prints.
	if rowBound < 20 {
		t.Errorf("only %d quotes bound to a golden row, want Table 2's and Table 3's", rowBound)
	}
}

func TestExperimentsDocPaperValuesSkipped(t *testing.T) {
	doc := strings.Join([]string{
		"## Table 9 — a (paper vs measured)",
		"",
		"| x | paper a | meas a |",
		"|---|---|---|",
		"| 1 | 0.128 → .008 | 0.029 |",
		"",
		"## Ablations (in prose)",
		"",
		"The paper's 1.5 (paper 0.81/0.72 vs our 0.95), §4.2, v1.2.",
	}, "\n")
	var got []string
	for _, q := range measuredQuotes(doc) {
		got = append(got, q.value+"@"+q.section+"/"+q.row)
	}
	if got, want := strings.Join(got, " "), "0.029@Table 9/1 1.5@Ablations/ 0.95@Ablations/"; got != want {
		t.Errorf("measured quotes %q, want %q", got, want)
	}
}

func TestGoldenBlocksTitled(t *testing.T) {
	golden := strings.Join([]string{
		"Table 3: perf (measured / paper)",
		"Perf @ 35W  .60 / .52",
		"=====",
		"§5 worked example (budget 294W)",
		"ΣP = 282W",
		"=====",
		"Ablation: one",
		"a 0.1",
		"=====",
		"Ablation: two",
		"b 0.2",
	}, "\n")
	var got []string
	for title, lines := range goldenBlocks(golden) {
		got = append(got, title+"="+strings.Join(lines, ";"))
	}
	sort.Strings(got)
	if got, want := strings.Join(got, " "), "Ablation=Ablation: one;a 0.1;Ablation: two;b 0.2 "+
		"Table 3=Table 3: perf (measured / paper);Perf @ 35W  .60 / .52 "+
		"§5 worked example=§5 worked example (budget 294W);ΣP = 282W"; got != want {
		t.Errorf("blocks %q, want %q", got, want)
	}
}
