package repro_test

// The dead-export guard: every exported top-level func, type, var and
// const in non-test Go under internal/ and cmd/ must be referenced from a
// non-test file outside bench/, or be listed in unusedAllow with its
// reason. An allowlist entry that no longer names an unused declaration
// fails too, so the list can only shrink. Methods are out of scope:
// interface satisfaction defeats name matching.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "repro"

// unusedAllow names the exported declarations kept without a shipping
// caller, keyed "<package dir>.<Name>", each with why it stays.
var unusedAllow = map[string]string{
	"internal/engine.NewTimeline":            "bench-pinned (bench/des.go, bench/probes.go); ROADMAP 1(b) deletes it",
	"internal/netcluster.NewRoot":            "bench-pinned (bench/rounds.go); ROADMAP 1(b) builds rounds with NewFleet",
	"internal/optimal.Greedy":                "bench-pinned (bench/probes.go); ROADMAP 1(b) moves it into _test.go",
	"internal/stats.Mean":                    "bench-pinned (bench/run.go); ROADMAP 1(a) gives bench/ its own copies of what only it uses",
	"internal/stats.Min":                     "bench-pinned (bench/compare.go); ROADMAP 1(a) gives bench/ its own copies of what only it uses",
	"internal/stats.Max":                     "bench-pinned (bench/compare.go, bench/run.go); ROADMAP 1(a) gives bench/ its own copies of what only it uses",
	"internal/scenario.RunCodecDifferential": "differential oracle: JSON codec against bin1, driven by scenario tests",
	"internal/scenario.RunTierDifferential":  "differential oracle: flat against relay tree, driven by scenario tests",
	"internal/experiments.TestOptions":       "cross-package test input: the small-scale options the cmd/experiments and cmd/fvsst-farm tests run at",
	"internal/experiments.DefaultOptions":    "cross-package test input: paper-scale options for the root testing.B harness",
	"internal/farm.NewHolder":                "cross-package test input: a lone lease holder for the cluster and invariant tests",
	"internal/power.WithVoltageVariation":    "cross-package test input: per-CPU varied tables for the fvsst, cluster, farm and invariant tests",
}

func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{path: filepath.ToSlash(p), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range unusedExports(files, unusedAllow) {
		t.Error(problem)
	}
}

// srcFile is one parsed Go file and its slash path from the module root.
type srcFile struct {
	path string
	file *ast.File
}

// unusedExports returns one line per exported top-level name under
// internal/ or cmd/ that no non-test file outside bench/ references and
// allow does not list, and one per allow entry that is not such a name.
func unusedExports(files []srcFile, allow map[string]string) []string {
	// Package name per directory, for imports without an alias.
	pkgName := map[string]string{}
	for _, sf := range files {
		if !strings.HasSuffix(sf.path, "_test.go") {
			pkgName[path.Dir(sf.path)] = sf.file.Name.Name
		}
	}

	declared := map[string]bool{} // "<dir>.<Name>"
	used := map[string]bool{}
	for _, sf := range files {
		if strings.HasSuffix(sf.path, "_test.go") {
			continue
		}
		dir := path.Dir(sf.path)
		if strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
			for _, id := range topLevelNames(sf.file) {
				if id.IsExported() {
					declared[dir+"."+id.Name] = true
				}
			}
		}
		if dir == "bench" || strings.HasPrefix(dir, "bench/") {
			continue
		}
		imports := map[string]string{} // local name → package dir
		for _, imp := range sf.file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			target, ok := strings.CutPrefix(p, modulePath+"/")
			if !ok {
				continue
			}
			local := pkgName[target]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = target
		}
		markUses(sf.file, dir, imports, used)
	}

	var problems []string
	for key := range declared {
		if !used[key] {
			if _, ok := allow[key]; !ok {
				problems = append(problems, key+" is exported but no non-test code outside bench/ uses it: delete it, unexport it, or allowlist it with a reason")
			}
		}
	}
	for key := range allow {
		if !declared[key] || used[key] {
			problems = append(problems, key+" is a stale allowlist entry: it is gone or has a caller now")
		}
	}
	sort.Strings(problems)
	return problems
}

// topLevelNames returns the identifiers a file declares at package
// level, methods excluded.
func topLevelNames(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ids = append(ids, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ids = append(ids, specNames(spec)...)
			}
		}
	}
	return ids
}

// specNames returns the names a type or value spec declares; none for an
// import.
func specNames(spec ast.Spec) []*ast.Ident {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	}
	return nil
}

// markUses records in used every reference f makes to a module package:
// a selector on an import of it, or a bare identifier naming something
// of f's own package dir. A method's receiver type is a reference, so a
// type with methods counts as used. Field names and selected members are
// not references, and neither is a name inside its own top-level
// declaration — the declaring identifier, a recursive call, a
// self-referencing type.
func markUses(f *ast.File, dir string, imports map[string]string, used map[string]bool) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			self := map[string]bool{}
			if d.Recv == nil {
				self[d.Name.Name] = true
			}
			if d.Recv != nil {
				walkUses(d.Recv, dir, imports, self, used)
			}
			walkUses(d.Type, dir, imports, self, used)
			if d.Body != nil {
				walkUses(d.Body, dir, imports, self, used)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				names := specNames(spec)
				if names == nil {
					continue // an import
				}
				self := map[string]bool{}
				for _, id := range names {
					self[id.Name] = true
				}
				walkUses(spec, dir, imports, self, used)
			}
		}
	}
}

// walkUses is markUses' walk of one declaration; self holds the names
// that declaration introduces.
func walkUses(root ast.Node, dir string, imports map[string]string, self, used map[string]bool) {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if target, ok := imports[x.Name]; ok {
					used[target+"."+n.Sel.Name] = true
					return false
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Field:
			ast.Inspect(n.Type, visit)
			return false
		case *ast.Ident:
			if !self[n.Name] {
				used[dir+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(root, visit)
}

// TestUnusedExportsChecker feeds the checker in-memory sources, one
// verdict per rule.
func TestUnusedExportsChecker(t *testing.T) {
	const decl = "package a\n\nfunc Used() {}\n\nfunc Unused() {}\n"
	cases := []struct {
		name  string
		files map[string]string
		allow map[string]string
		want  []string // the problems, by their leading words
	}{
		{
			name:  "unused exported func",
			files: map[string]string{"internal/a/a.go": "package a\n\nfunc Unused() {}\n"},
			want:  []string{"internal/a.Unused is exported"},
		},
		{
			name: "used only from a _test.go file",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\nfunc Unused() {}\n",
				"internal/a/a_test.go": "package a\n\nfunc use() { Unused() }\n",
				"internal/b/b_test.go": "package b\n\nimport \"repro/internal/a\"\n\nvar _ = a.Unused\n",
			},
			want: []string{"internal/a.Unused is exported"},
		},
		{
			name: "used only from bench/",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Unused() {}\n",
				"bench/run.go":    "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.Unused() }\n",
			},
			want: []string{"internal/a.Unused is exported"},
		},
		{
			name: "same-package bare use",
			files: map[string]string{
				"internal/a/a.go": decl,
				"internal/a/b.go": "package a\n\nfunc helper() { Used(); Unused() }\n",
			},
		},
		{
			name: "recursion is no use, a method receiver is",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{ next *T }\n\nfunc Loop() { Loop() }\n\nfunc (T) M() {}\n",
			},
			want: []string{"internal/a.Loop is exported"},
		},
		{
			name: "cross-package selector through an aliased import",
			files: map[string]string{
				"internal/a/a.go":    decl,
				"cmd/tool/main.go":   "package main\n\nimport alias \"repro/internal/a\"\n\nfunc main() { alias.Used() }\n",
				"examples/x/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.Unused() }\n",
			},
		},
		{
			name:  "allowlisted unused name",
			files: map[string]string{"internal/a/a.go": "package a\n\nfunc Unused() {}\n"},
			allow: map[string]string{"internal/a.Unused": "kept on purpose"},
		},
		{
			name: "stale allowlist entries",
			files: map[string]string{
				"internal/a/a.go": decl,
				"internal/a/b.go": "package a\n\nvar _ = Used\n",
			},
			allow: map[string]string{
				"internal/a.Unused": "kept on purpose",
				"internal/a.Used":   "has a caller now",
				"internal/a.Gone":   "deleted",
			},
			want: []string{"internal/a.Gone is a stale", "internal/a.Used is a stale"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			var files []srcFile
			for p, src := range tc.files {
				f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, srcFile{path: p, file: f})
			}
			got := unusedExports(files, tc.allow)
			if len(got) != len(tc.want) {
				t.Fatalf("problems %q, want %q", got, tc.want)
			}
			for i, w := range tc.want {
				if !strings.HasPrefix(got[i], w) {
					t.Errorf("problem %d = %q, want it to start %q", i, got[i], w)
				}
			}
		})
	}
}
