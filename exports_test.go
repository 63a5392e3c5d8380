package repro_test

// The dead-export guard. In non-test Go under internal/ and cmd/, every
// exported top-level func, type, var and const must be referenced, every
// exported method called, and every exported field of an option struct
// set, by a non-test file outside bench/ — or be listed in unusedAllow
// with its reason. An allowlist entry that no longer names an unused
// declaration fails too, so the list can only shrink.
//
// Methods and fields match by name, on any receiver: a selector .M
// anywhere counts as a call of every method M. A method that an
// interface names (one declared in the module, or one of stdlibMethods)
// is exempt, since it can be called through the interface without ever
// being selected on its own type.

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
// caller, keyed "<package dir>.<Name>", "<package dir>.<Type>.<Method>"
// or "<package dir>.<Type>.<Field>", each with why it stays.
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

	"internal/engine.Timeline.Post":               "bench-pinned (bench/des.go, bench/probes.go); ROADMAP 1(b) deletes the Timeline",
	"internal/engine.Timeline.Cancel":             "bench-pinned with its Timeline (the engine tests and FuzzTimelineOps drive it); ROADMAP 1(b) deletes the Timeline",
	"internal/engine.HandlerFunc":                 "bench-pinned (bench/probes.go); ROADMAP 1(b) deletes the Timeline",
	"internal/machine.Machine.NextArrivalAt":      "bench-pinned (bench/des.go); goes with ROADMAP 1's bench work",
	"internal/fvsst.Scheduler.SetDecisionLogging": "bench-pinned (bench/probes.go); goes with ROADMAP 1's bench work",
	"internal/netcluster.Root.RootDecisions":      "bench-pinned (bench/rounds.go); goes with ROADMAP 1's bench work",
	"internal/machine.Machine.AdvanceStats":       "planned: ROADMAP 8(c) wires the fast-forward counts into obs",
	"internal/invariant.StepTwoBruteForce":        "test oracle: brute force, the independent witness for the optimal comparator",

	// The paper's optional modes (README), which only fvsst tests turn on.
	"internal/fvsst.Config.UseHaltedCycles":        "paper mode (§5 halted-cycle idle signal) only fvsst tests turn on; the next re-anchor decides whether an experiment drives it or it goes",
	"internal/fvsst.Config.UseTwoPointCalibration": "paper mode (§4.3 footnote calibration) only fvsst tests turn on; the next re-anchor decides whether an experiment drives it or it goes",
	"internal/fvsst.Config.LatencyBoundLo":         "paper mode (ref [17] latency bounds) only fvsst tests turn on; the next re-anchor decides whether an experiment drives it or it goes",
	"internal/fvsst.Config.LatencyBoundHi":         "paper mode (ref [17] latency bounds) only fvsst tests turn on; the next re-anchor decides whether an experiment drives it or it goes",
	"internal/fvsst.Config.VoltageTables":          "paper mode (§5 per-processor voltage tables) only fvsst tests turn on; the next re-anchor decides whether an experiment drives it or it goes",
	"internal/fvsst.Overhead.Distributed":          "paper mode (§9 distributed scheduler overhead) only fvsst tests turn on; the next re-anchor decides whether an experiment drives it or it goes",
}

// stdlibMethods are the methods of standard-library interfaces the
// module's types satisfy, which the standard library calls for them.
var stdlibMethods = map[string]bool{
	// fmt.Stringer, fmt.GoStringer, fmt.Formatter
	"String": true, "GoString": true, "Format": true,
	// error, and what errors.Unwrap/Is/As look for
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	// http.Handler
	"ServeHTTP": true,
	// io.Reader, io.Writer, io.Closer
	"Read": true, "Write": true, "Close": true,
	// the rest of net.Conn
	"LocalAddr": true, "RemoteAddr": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	// sort.Interface, container/heap.Interface
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	// json.Marshaler, json.Unmarshaler
	"MarshalJSON": true, "UnmarshalJSON": true,
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

// exportScan is what one pass over the module collects.
type exportScan struct {
	declared map[string]string          // key → the problem if it goes unused
	used     map[string]bool            // top-level keys something references
	structs  map[string]*ast.StructType // every struct type, by top-level key
	methods  map[string]string          // method key → its name
	fields   map[string]string          // option-field key → its name

	selected   map[string]bool // every .Name selected outside tests and bench/
	interfaces map[string]bool // every method name a module interface declares
	written    map[string]bool // every field name written outside tests and bench/
}

// unusedExports returns one line per exported name under internal/ or
// cmd/ that no non-test file outside bench/ uses and allow does not list,
// and one per allow entry that is not such a name.
func unusedExports(files []srcFile, allow map[string]string) []string {
	// Package name per directory, for imports without an alias.
	pkgName := map[string]string{}
	for _, sf := range files {
		if !strings.HasSuffix(sf.path, "_test.go") {
			pkgName[path.Dir(sf.path)] = sf.file.Name.Name
		}
	}

	s := exportScan{
		declared: map[string]string{}, used: map[string]bool{},
		structs: map[string]*ast.StructType{}, methods: map[string]string{}, fields: map[string]string{},
		selected: map[string]bool{}, interfaces: map[string]bool{}, written: map[string]bool{},
	}
	for _, sf := range files {
		if strings.HasSuffix(sf.path, "_test.go") {
			continue
		}
		dir := path.Dir(sf.path)
		if strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
			s.declare(sf.file, dir)
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
		markUses(sf.file, dir, imports, s.used)
		s.markMembers(sf.file)
	}
	s.declareOptionFields()

	isUnused := func(key string) bool {
		if name, ok := s.methods[key]; ok {
			return !s.selected[name] && !s.interfaces[name] && !stdlibMethods[name]
		}
		if name, ok := s.fields[key]; ok {
			return !s.written[name]
		}
		return !s.used[key]
	}
	var problems []string
	for key, problem := range s.declared {
		if isUnused(key) {
			if _, ok := allow[key]; !ok {
				problems = append(problems, key+problem)
			}
		}
	}
	for key := range allow {
		if _, ok := s.declared[key]; !ok || !isUnused(key) {
			problems = append(problems, key+" is a stale allowlist entry: it is gone or has a caller now")
		}
	}
	sort.Strings(problems)
	return problems
}

const (
	unusedName   = " is exported but no non-test code outside bench/ uses it: delete it, unexport it, or allowlist it with a reason"
	unusedMethod = " is exported but no non-test code outside bench/ calls it and no interface names it: delete it, unexport it, or allowlist it with a reason"
	unsetField   = " is an option field no non-test code outside bench/ sets: delete it, or allowlist it with a reason"
)

// declare records f's exported top-level names and methods, and its
// struct types for declareOptionFields.
func (s *exportScan) declare(f *ast.File, dir string) {
	for _, id := range topLevelNames(f) {
		if id.IsExported() {
			s.declared[dir+"."+id.Name] = unusedName
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil && d.Name.IsExported() {
				key := dir + "." + receiverType(d) + "." + d.Name.Name
				s.declared[key] = unusedMethod
				s.methods[key] = d.Name.Name
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						s.structs[dir+"."+ts.Name.Name] = st
					}
				}
			}
		}
	}
}

// declareOptionFields declares the exported fields of every exported
// …Config or …Options struct under internal/, and of the same-package
// struct types those hold by value.
func (s *exportScan) declareOptionFields() {
	var declareFields func(key string)
	declareFields = func(key string) {
		st := s.structs[key]
		dir := key[:strings.LastIndex(key, ".")]
		for _, field := range st.Fields.List {
			for _, id := range field.Names {
				if !id.IsExported() {
					continue
				}
				if _, seen := s.declared[key+"."+id.Name]; seen {
					continue
				}
				s.declared[key+"."+id.Name] = unsetField
				s.fields[key+"."+id.Name] = id.Name
				if t, ok := field.Type.(*ast.Ident); ok && s.structs[dir+"."+t.Name] != nil {
					declareFields(dir + "." + t.Name)
				}
			}
		}
	}
	for key := range s.structs {
		name := key[strings.LastIndex(key, ".")+1:]
		if strings.HasPrefix(key, "internal/") && ast.IsExported(name) &&
			(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
			declareFields(key)
		}
	}
}

// markMembers records the member names f selects, the method names its
// interface types declare, and the field names it writes: a
// composite-literal key, an assignment or increment target, or an
// address taken (a flag bound to a field sets it).
func (s *exportScan) markMembers(f *ast.File) {
	// Every field on the target's path is written: x.A.B = v sets B in A.
	writeTarget := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				s.written[x.Sel.Name] = true
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			s.selected[n.Sel.Name] = true
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					s.interfaces[id.Name] = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						s.written[id.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				writeTarget(lhs)
			}
		case *ast.IncDecStmt:
			writeTarget(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				writeTarget(n.X)
			}
		}
		return true
	})
}

// receiverType returns the base type name of a method's receiver.
func receiverType(d *ast.FuncDecl) string {
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident).Name
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
// of f's own package dir. Field names and selected members are not
// references, and neither is a name inside its own top-level declaration
// — the declaring identifier, a recursive call, a self-referencing type —
// nor a type named inside its own methods, receiver included, so a type
// only its methods mention counts as unused.
func markUses(f *ast.File, dir string, imports map[string]string, used map[string]bool) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			self := map[string]bool{}
			if d.Recv == nil {
				self[d.Name.Name] = true
			} else {
				self[receiverType(d)] = true
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
			name: "recursion and self-reference are no use",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{ next *T }\n\nvar _ T\n\nfunc Loop() { Loop() }\n",
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
		{
			name: "unused method",
			files: map[string]string{
				"internal/a/a.go":  "package a\n\ntype T struct{}\n\nfunc (T) Unused() {}\n\nfunc (T) unexported() {}\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { _ = a.T{} }\n",
			},
			want: []string{"internal/a.T.Unused is exported"},
		},
		{
			name: "method called only through an interface-typed value",
			files: map[string]string{
				"internal/a/a.go":  "package a\n\ntype T struct{}\n\nfunc (T) M() {}\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\ntype runner interface{ M() }\n\nfunc main() {\n\tvar r runner = a.T{}\n\tr.M()\n}\n",
			},
		},
		{
			name: "method a module interface names, never selected",
			files: map[string]string{
				"internal/a/a.go":  "package a\n\ntype T struct{}\n\nfunc (T) M() {}\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\ntype runner interface{ M() }\n\nvar _ runner = a.T{}\n\nfunc main() {}\n",
			},
		},
		{
			name: "method selected only from a _test.go file or bench/",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\ntype T struct{}\n\nfunc New() T { return T{} }\n\nfunc (T) M() {}\n",
				"internal/a/a_test.go": "package a\n\nfunc use() { New().M() }\n",
				"bench/run.go":         "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.New().M() }\n",
				"cmd/tool/main.go":     "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.New() }\n",
			},
			want: []string{"internal/a.T.M is exported"},
		},
		{
			name: "type named only by its own methods",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (t T) String() string { return \"T\" }\n\nfunc (t *T) clone() *T { return &T{} }\n",
			},
			want: []string{"internal/a.T is exported"},
		},
		{
			name: "Config field set only in a test",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\ntype Config struct{ Set, Unset int }\n\nfunc Default() Config { return Config{Set: 1} }\n",
				"internal/a/a_test.go": "package a\n\nfunc use() {\n\tc := Default()\n\tc.Unset = 2\n}\n",
				"cmd/tool/main.go":     "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.Default() }\n",
			},
			want: []string{"internal/a.Config.Unset is an option field"},
		},
		{
			name: "Options fields set by a composite-literal key or an assignment",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Options struct {\n\tRate  int\n\tInner Overhead\n\tTail  Overhead\n}\n\n" +
					"type Overhead struct{ Cost, Lag int }\n\ntype Point struct{ X int }\n\nvar _ Point\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() {\n\to := a.Options{Rate: 2}\n\to.Inner.Cost = 1\n\t_ = o\n}\n",
			},
			want: []string{"internal/a.Options.Tail is an option field", "internal/a.Overhead.Lag is an option field"},
		},
		{
			name: "stale Type.Method and Type.Field entries",
			files: map[string]string{
				"internal/a/a.go":  "package a\n\ntype T struct{}\n\nfunc (T) M() {}\n\ntype Config struct{ Rate int }\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() {\n\ta.T{}.M()\n\t_ = a.Config{Rate: 1}\n}\n",
			},
			allow: map[string]string{
				"internal/a.T.M":         "has a caller now",
				"internal/a.Config.Rate": "is set now",
				"internal/a.T.Gone":      "deleted",
			},
			want: []string{"internal/a.Config.Rate is a stale", "internal/a.T.Gone is a stale", "internal/a.T.M is a stale"},
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
