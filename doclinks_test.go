package repro_test

// The documentation link guard. Every relative link in the root *.md
// files and docs/*.md names a file that exists, every #fragment into a
// .md file names one of its headings, and every Go comment that cites
// docs/<name>.md names a file that exists. bench/README.md is not
// scanned: it changes only with the benchmark.

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

var (
	// linkRE matches an inline link's or image's destination, with an
	// optional title: [text](dest "title").
	linkRE = regexp.MustCompile(`\]\(\s*([^)\s]+)(?:\s+"[^"]*")?\s*\)`)
	// codeSpanRE matches a code span, which may run across lines.
	codeSpanRE = regexp.MustCompile("`[^`]*`")
	// headingRE matches an ATX heading and captures its text.
	headingRE = regexp.MustCompile(`^ {0,3}#{1,6}\s+(.*?)\s*#*\s*$`)
	// docCiteRE matches a cite of a docs page in a Go comment.
	docCiteRE = regexp.MustCompile(`docs/[A-Za-z0-9_.-]+\.md`)
)

// proseLines returns doc's lines with fenced code blocks emptied.
func proseLines(doc string) []string {
	lines := strings.Split(doc, "\n")
	inFence := false
	for i, line := range lines {
		t := strings.TrimLeft(line, " ")
		if fence := strings.HasPrefix(t, "```") || strings.HasPrefix(t, "~~~"); fence || inFence {
			inFence = inFence != fence
			lines[i] = ""
		}
	}
	return lines
}

// headingSlugs returns the anchors GitHub gives the headings of doc: the
// heading's text lower-cased, every rune but letters, marks, digits,
// connector punctuation, spaces and hyphens dropped, each space turned
// into a hyphen, and "-1", "-2", … appended to a repeated slug.
func headingSlugs(doc string) map[string]bool {
	slugs := make(map[string]bool)
	seen := make(map[string]int)
	for _, line := range proseLines(doc) {
		m := headingRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var b strings.Builder
		for _, r := range strings.ToLower(m[1]) {
			switch {
			case r == ' ':
				b.WriteRune('-')
			case r == '-', unicode.IsLetter(r), unicode.IsMark(r), unicode.IsNumber(r), unicode.Is(unicode.Pc, r):
				b.WriteRune(r)
			}
		}
		slug := b.String()
		if n := seen[slug]; n > 0 {
			slug += "-" + strconv.Itoa(n)
		}
		seen[b.String()]++
		slugs[slug] = true
	}
	return slugs
}

// checkDocLinks returns one message per relative link in the named docs,
// paths relative to root, that names no existing file, or whose
// #fragment names no heading of its .md target.
func checkDocLinks(root string, docs []string) []string {
	var bad []string
	slugs := make(map[string]map[string]bool)
	read := func(path string) (string, error) {
		b, err := os.ReadFile(filepath.Join(root, path))
		return string(b), err
	}
	for _, doc := range docs {
		src, err := read(doc)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		prose := strings.Join(proseLines(src), "\n")
		prose = codeSpanRE.ReplaceAllStringFunc(prose, func(s string) string {
			return strings.Repeat("\n", strings.Count(s, "\n"))
		})
		for _, m := range linkRE.FindAllStringSubmatchIndex(prose, -1) {
			dest := prose[m[2]:m[3]]
			if u, err := url.Parse(dest); err == nil && (u.Scheme != "" || u.Host != "") {
				continue
			}
			where := doc + ":" + strconv.Itoa(1+strings.Count(prose[:m[2]], "\n")) + ": " + dest
			path, frag, _ := strings.Cut(dest, "#")
			target := doc
			if path != "" {
				target = filepath.ToSlash(filepath.Join(filepath.Dir(doc), path))
				if _, err := os.Stat(filepath.Join(root, target)); err != nil {
					bad = append(bad, where+" names no file")
					continue
				}
			}
			if frag == "" || !strings.HasSuffix(target, ".md") {
				continue
			}
			if slugs[target] == nil {
				text, err := read(target)
				if err != nil {
					bad = append(bad, where+": "+err.Error())
					continue
				}
				slugs[target] = headingSlugs(text)
			}
			if !slugs[target][frag] {
				bad = append(bad, where+" names no heading of "+target)
			}
		}
	}
	return bad
}

// TestDocLinksResolve fails on a relative Markdown link that names no
// file, a #fragment that names no heading of its .md target, and a Go
// comment that cites a docs/*.md page that does not exist.
func TestDocLinksResolve(t *testing.T) {
	var docs []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, m...)
	}
	for _, msg := range checkDocLinks(".", docs) {
		t.Error(msg)
	}

	cites := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				return nil
			}
			if tok != token.COMMENT {
				continue
			}
			for _, cite := range docCiteRE.FindAllString(lit, -1) {
				cites++
				if _, err := os.Stat(filepath.FromSlash(cite)); err != nil {
					t.Errorf("%s: comment cites %s, which does not exist", fset.Position(pos), cite)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cites == 0 {
		t.Error("no Go comment cites a docs/*.md page; the comment scan is broken")
	}
}

// TestDocLinksChecker runs the link checker on a small doc set with one
// broken link of each kind, so that each is known to be caught.
func TestDocLinksChecker(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"A.md": "# Top\n\n## `tree-1k` (2026-10-19): a round\n\n## Top\n\n" +
			"[ok](docs/b.md#step-2--the-knapsack) [ok](#tree-1k-2026-10-19-a-round) [ok](#top-1)\n" +
			"[ok](docs/b.md) [ok](https://example.com/x#y) `[code](missing.md)`\n" +
			"```\n[fenced](missing.md)\n```\n" +
			"[bad file](docs/missing.md)\n" +
			"[bad heading](docs/b.md#step-2)\n" +
			"[bad self](#top-2)\n",
		"docs/b.md": "## Step 2 — the knapsack\n",
	}
	for name, text := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := strings.Join(checkDocLinks(root, []string{"A.md"}), "\n")
	want := strings.Join([]string{
		"A.md:12: docs/missing.md names no file",
		"A.md:13: docs/b.md#step-2 names no heading of docs/b.md",
		"A.md:14: #top-2 names no heading of A.md",
	}, "\n")
	if got != want {
		t.Errorf("checker found\n%s\nwant\n%s", got, want)
	}
}
