package repro_test

// The documentation guards. The link guard (TestDocLinksResolve): every
// relative link in the root *.md files and docs/*.md names a file that
// exists, every #fragment into a .md file names one of its headings, and
// every Go comment that cites docs/<name>.md names a file that exists.
// The identifier guard (TestDocIdentifiersResolve): every code name a
// code span of those docs cites, outside fenced blocks and the planning
// docs at the root, resolves against the type-checked module
// (theModule), its test files or BENCHMARK.json's metrics. Neither scans
// bench/README.md: it is the benchmark's own guide, and it changes only
// with the benchmark.

import (
	"encoding/json"
	"go/ast"
	"go/scanner"
	"go/token"
	"go/types"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
	for _, msg := range checkDocLinks(".", docFiles(t)) {
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

var (
	// chainRE matches a dotted chain of identifiers: pkg.Name,
	// Type.Member, pkg.Type.Member, pkg.metric_name.
	chainRE = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+`)
	// testNameRE matches the name of a test, fuzz target or benchmark.
	testNameRE = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*$`)
	// snakeRE matches a lower-case name such as a metric's.
	snakeRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	// fileNameRE matches a chain that is a file name, such as proto.go.
	fileNameRE = regexp.MustCompile(`\.(?:go|md|json|jsonl|golden)$`)
	// wordRE matches an identifier.
	wordRE = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
)

// docIdents is what a code span in the docs may name: the module's
// packages by name, its exported types by name, the test functions its
// test files declare, and BENCHMARK.json's metrics.
type docIdents struct {
	pkgs    map[string]*types.Package
	types   map[string][]*types.TypeName
	tests   map[string]map[string]bool // test name → the package names declaring it
	metrics map[string]bool
}

func newDocIdents(m *module, benchmarkJSON string) (*docIdents, error) {
	d := &docIdents{pkgs: map[string]*types.Package{}, types: map[string][]*types.TypeName{},
		tests: map[string]map[string]bool{}, metrics: map[string]bool{}}
	for _, dir := range m.dirs {
		pkg := m.pkgs[dir]
		if pkg.Name() == "main" {
			continue
		}
		d.pkgs[pkg.Name()] = pkg
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				d.types[name] = append(d.types[name], tn)
			}
		}
	}
	for _, f := range m.tests {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testNameRE.MatchString(fn.Name.Name) {
				if d.tests[fn.Name.Name] == nil {
					d.tests[fn.Name.Name] = map[string]bool{}
				}
				d.tests[fn.Name.Name][strings.TrimSuffix(f.Name.Name, "_test")] = true
			}
		}
	}
	b, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, err
	}
	for _, metric := range append(spec.EndToEnd, spec.PerLayer...) {
		d.metrics[metric.Name] = true
	}
	return d, nil
}

// check returns what is wrong with the dotted chain of names, or "" when
// it resolves or does not start with a module package or exported type.
func (d *docIdents) check(parts []string) string {
	if pkg, ok := d.pkgs[parts[0]]; ok {
		pkgName, name := parts[0], parts[1]
		obj := pkg.Scope().Lookup(name)
		switch {
		case obj != nil:
			return members(obj, parts[:2], parts[2:])
		case len(parts) > 2: // the member's owner is missing
		case d.metrics[pkgName+"."+name], d.tests[name][pkgName]:
			return ""
		case testNameRE.MatchString(name):
			return "no test file of package " + pkgName + " declares " + name
		case snakeRE.MatchString(name):
			return "BENCHMARK.json has no such metric"
		}
		return "package " + pkgName + " declares no " + name
	}
	tns := d.types[parts[0]]
	for _, tn := range tns {
		if members(tn, parts[:1], parts[1:]) == "" {
			return ""
		}
	}
	if tns == nil {
		return ""
	}
	return "no module type named " + parts[0] + " has it"
}

// members resolves each of rest as a field or method of the type of the
// object before it, starting at obj, which prefix names.
func members(obj types.Object, prefix, rest []string) string {
	for i, name := range rest {
		sel, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), name)
		if sel == nil {
			return strings.Join(append(prefix, rest[:i]...), ".") + " has no field or method " + name
		}
		obj = sel
	}
	return ""
}

// checkDocIdentifiers returns one message per name in a code span of the
// named docs, paths relative to root, that does not resolve: a chain that
// starts with a module package or exported module type and names nothing
// of it, a pkg.snake_name that is no metric of root's BENCHMARK.json, and
// a Test, Fuzz or Benchmark function no test file declares. Fenced blocks
// are not scanned.
func checkDocIdentifiers(m *module, root string, docs []string) ([]string, error) {
	d, err := newDocIdents(m, filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, doc := range docs {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		prose := strings.Join(proseLines(string(src)), "\n")
		for _, span := range codeSpanRE.FindAllStringIndex(prose, -1) {
			code := prose[span[0]:span[1]]
			where := func(at int) string {
				return doc + ":" + strconv.Itoa(1+strings.Count(prose[:span[0]+at], "\n")) + ": "
			}
			for _, c := range chainRE.FindAllStringIndex(code, -1) {
				chain := code[c[0]:c[1]]
				if c[0] > 0 && strings.ContainsAny(code[c[0]-1:c[0]], "./-") || fileNameRE.MatchString(chain) {
					continue // a path, a file, a flag or the tail of a longer chain
				}
				if problem := d.check(strings.Split(chain, ".")); problem != "" {
					bad = append(bad, where(c[0])+chain+": "+problem)
				}
			}
			for _, w := range wordRE.FindAllStringIndex(code, -1) {
				name := code[w[0]:w[1]]
				inChain := (w[0] > 0 && code[w[0]-1] == '.') || (w[1] < len(code) && code[w[1]] == '.')
				if !inChain && testNameRE.MatchString(name) && d.tests[name] == nil {
					bad = append(bad, where(w[0])+name+": no test file declares it")
				}
			}
		}
	}
	return bad, nil
}

// docFiles returns the root *.md files and docs/*.md, less those named
// in skip.
func docFiles(t *testing.T, skip ...string) []string {
	var docs []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range m {
			if !slices.Contains(skip, doc) {
				docs = append(docs, doc)
			}
		}
	}
	return docs
}

// TestDocIdentifiersResolve fails on a code span in the docs that names a
// declaration, field, method, metric or test the module does not have.
func TestDocIdentifiersResolve(t *testing.T) {
	m, err := theModule()
	if err != nil {
		t.Fatal(err)
	}
	// At the root only the docs that describe the code as it stands are
	// checked; the planning docs name code that is gone or not yet written.
	current := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md"}
	docs := slices.DeleteFunc(docFiles(t), func(doc string) bool {
		return filepath.Dir(doc) == "." && !slices.Contains(current, doc)
	})
	bad, err := checkDocIdentifiers(m, ".", docs)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range bad {
		t.Error(msg)
	}
}

// TestDocIdentifiersChecker runs the identifier checker against the real
// module on a small doc set holding one good and one broken reference of
// each form, and a broken one in a fenced block, which is not scanned.
func TestDocIdentifiersChecker(t *testing.T) {
	m, err := theModule()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	files := map[string]string{
		"BENCHMARK.json": `{"end_to_end": [{"name": "op_ms_p50"}], "per_layer": [{"name": "cluster.budget_fill"}]}`,
		"A.md": "`fvsst.FitToBudgetGrid` and `fvsst.NoSuch`\n" +
			"`Machine.Step` and `Machine.NoSuch` and `x.NoSuch`\n" +
			"`machine.Machine.Step()` and `machine.Machine.NoSuch`\n" +
			"`cluster.budget_fill` and `cluster.no_such_metric` and `internal/fvsst/no_such.go` and `proto.go`\n" +
			"`TestDocLinksChecker` and `TestNoSuch/sub`\n" +
			"`invariant.FuzzStepTwoAgreement` and\n`invariant.FuzzNoSuch`\n" +
			"```\n`fvsst.NoSuchInFence` TestNoSuchInFence\n```\n",
	}
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(root, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := checkDocIdentifiers(m, root, []string{"A.md"})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(bad, "\n")
	want := strings.Join([]string{
		"A.md:1: fvsst.NoSuch: package fvsst declares no NoSuch",
		"A.md:2: Machine.NoSuch: no module type named Machine has it",
		"A.md:3: machine.Machine.NoSuch: machine.Machine has no field or method NoSuch",
		"A.md:4: cluster.no_such_metric: BENCHMARK.json has no such metric",
		"A.md:5: TestNoSuch: no test file declares it",
		"A.md:7: invariant.FuzzNoSuch: no test file of package invariant declares FuzzNoSuch",
	}, "\n")
	if got != want {
		t.Errorf("checker found\n%s\nwant\n%s", got, want)
	}
}
