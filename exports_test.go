package repro_test

// The dead-export guard. In non-test Go under internal/ and cmd/, every
// exported top-level func, type, var and const must be referenced, every
// exported method called, and every exported field of an option struct
// set, by a non-test file outside bench/ — or be listed in unusedAllow
// with its reason. An allowlist entry that no longer names an unused
// declaration fails too, so the list can only shrink.
//
// The guard type-checks the module (go/types, the standard library from
// source) and matches uses by object, not by name: a selector .M counts
// for the one method M it resolves to. A method is also called when
// shipping code selects an interface method of the same name and the
// method's type implements that interface, and it is exempt when its type
// implements one of stdlibInterfaces, which the standard library calls.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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
	"internal/machine.Machine.Step":               "bench-pinned (bench/probes.go); ROADMAP 1(b) deletes it once bench/ steps with StepQuantum",
	"internal/machine.Machine.Energy":             "bench-pinned (bench/des.go digests it); goes with ROADMAP 1's bench work",
	"internal/engine.Timeline.AdvanceTo":          "bench-pinned (bench/des.go, bench/probes.go); ROADMAP 1(b) deletes the Timeline",
	"internal/netcluster.Relay.Coordinator":       "bench-pinned (bench/rounds.go); goes with ROADMAP 1's bench work",
	"internal/serve.Station.QueueLen":             "bench-pinned (bench/probes.go); goes with ROADMAP 1's bench work",
	"internal/machine.Config.MeterNoiseSigma":     "bench-pinned (bench/probes.go zeroes it); nothing reads it, and ROADMAP 1(a) drops the write",
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

// stdlibInterfaces are the standard-library interfaces, "<import
// path>.<Name>", whose methods the standard library calls on the module's
// types. A method is exempt when its type implements one that declares it,
// and Unwrap, Is and As are exempt on any type that implements error.
var stdlibInterfaces = []string{
	"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter",
	"error",
	"io.Reader", "io.Writer", "io.Closer",
	"net.Conn", "net/http.Handler",
	"sort.Interface", "container/heap.Interface",
	"encoding/json.Marshaler", "encoding/json.Unmarshaler",
}

// errorConventions are the methods errors.Unwrap, errors.Is and errors.As
// look for on an error.
var errorConventions = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// stdlib imports the standard library from source, once per process:
// every type-check shares its packages, so their types stay identical.
var stdlib = sync.OnceValue(func() types.Importer {
	return importer.ForCompiler(token.NewFileSet(), "source", nil)
})

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
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
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
	problems, err := unusedExports(fset, files, unusedAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range problems {
		t.Error(problem)
	}
}

// srcFile is one parsed Go file and its slash path from the module root.
type srcFile struct {
	path string
	file *ast.File
}

// moduleImporter type-checks each module package once, from its non-test
// files, and imports everything else from the standard library.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // non-test files by package dir
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func (m *moduleImporter) Import(importPath string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(importPath, modulePath+"/"); ok {
		return m.check(dir)
	}
	return stdlib().Import(importPath)
}

// check type-checks the package in dir, or returns the one already checked.
func (m *moduleImporter) check(dir string) (*types.Package, error) {
	if pkg, ok := m.pkgs[dir]; ok {
		return pkg, nil
	}
	if len(m.files[dir]) == 0 {
		return nil, fmt.Errorf("%s has no non-test Go files", dir)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(modulePath+"/"+dir, m.fset, m.files[dir], info)
	if err != nil {
		return nil, err
	}
	m.pkgs[dir], m.infos[dir] = pkg, info
	return pkg, nil
}

// exportScan is what one pass over the type-checked module collects.
type exportScan struct {
	keys    map[string]types.Object // key → the declared object
	problem map[string]string       // key → the problem if it goes unused
	fields  map[types.Object]bool   // the declared option fields

	used     map[types.Object]bool // what shipping code refers to
	written  map[types.Object]bool // the fields shipping code sets
	selected ifaceSet              // the interface methods shipping code calls
	stdlib   ifaceSet              // the methods of stdlibInterfaces
}

// ifaceSet holds, per method name, the interfaces that declare it.
type ifaceSet map[string]map[*types.Interface]bool

func (s ifaceSet) add(name string, iface *types.Interface) {
	if s[name] == nil {
		s[name] = map[*types.Interface]bool{}
	}
	s[name][iface] = true
}

// implementedBy reports whether t or *t implements one of the interfaces
// that declare the method name.
func (s ifaceSet) implementedBy(t types.Type, name string) bool {
	for iface := range s[name] {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// unusedExports returns one line per exported name under internal/ or
// cmd/ that no non-test file outside bench/ uses and allow does not list,
// and one per allow entry that is not such a name. Test files and bench/
// are never type-checked.
func unusedExports(fset *token.FileSet, files []srcFile, allow map[string]string) ([]string, error) {
	m := &moduleImporter{fset: fset, files: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	var dirs []string
	for _, sf := range files {
		dir := path.Dir(sf.path)
		if strings.HasSuffix(sf.path, "_test.go") || dir == "bench" || strings.HasPrefix(dir, "bench/") {
			continue
		}
		if m.files[dir] == nil {
			dirs = append(dirs, dir)
		}
		m.files[dir] = append(m.files[dir], sf.file)
	}
	sort.Strings(dirs)

	s := exportScan{
		keys: map[string]types.Object{}, problem: map[string]string{}, fields: map[types.Object]bool{},
		used: map[types.Object]bool{}, written: map[types.Object]bool{},
		selected: ifaceSet{}, stdlib: ifaceSet{},
	}
	for _, dir := range dirs {
		pkg, err := m.check(dir)
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
			s.declare(dir, pkg)
		}
		for _, f := range m.files[dir] {
			s.markUses(m.infos[dir], f)
			s.markWrites(m.infos[dir], f)
		}
	}
	if err := s.loadStdlib(); err != nil {
		return nil, err
	}

	var problems []string
	for key, obj := range s.keys {
		if s.isUnused(obj) {
			if _, ok := allow[key]; !ok {
				problems = append(problems, key+s.problem[key])
			}
		}
	}
	for key := range allow {
		if obj, ok := s.keys[key]; !ok || !s.isUnused(obj) {
			problems = append(problems, key+" is a stale allowlist entry: it is gone or has a caller now")
		}
	}
	sort.Strings(problems)
	return problems, nil
}

const (
	unusedName   = " is exported but no non-test code outside bench/ uses it: delete it, unexport it, or allowlist it with a reason"
	unusedMethod = " is exported but no non-test code outside bench/ calls it, directly or through an interface its type implements: delete it, unexport it, or allowlist it with a reason"
	unsetField   = " is an option field no non-test code outside bench/ sets: delete it, or allowlist it with a reason"
)

func (s *exportScan) add(obj types.Object, key, problem string) {
	s.keys[key] = obj
	s.problem[key] = problem
}

// declare records pkg's exported top-level names, the exported methods of
// its named types, and the exported fields of its …Config and …Options
// structs under internal/.
func (s *exportScan) declare(dir string, pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			s.add(obj, dir+"."+name, unusedName)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if fn := named.Method(i); fn.Exported() {
				s.add(fn, dir+"."+name+"."+fn.Name(), unusedMethod)
			}
		}
		if strings.HasPrefix(dir, "internal/") && tn.Exported() &&
			(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
			s.declareFields(dir, tn)
		}
	}
}

// declareFields declares the exported fields of tn's struct, and of the
// same-package struct types those hold by value.
func (s *exportScan) declareFields(dir string, tn *types.TypeName) {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() || f.Embedded() || s.fields[f] {
			continue
		}
		s.add(f, dir+"."+tn.Name()+"."+f.Name(), unsetField)
		s.fields[f] = true
		if n, ok := types.Unalias(f.Type()).(*types.Named); ok && n.Obj().Pkg() == tn.Pkg() {
			s.declareFields(dir, n.Obj())
		}
	}
}

// markUses records every object f refers to, and every interface method
// it selects. A use inside the used name's own top-level declaration — the
// declaring identifier, a recursive call, a self-referencing type — does
// not count, nor does a type named inside its own methods, receiver
// included, so a type only its methods mention counts as unused.
func (s *exportScan) markUses(info *types.Info, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			fn := info.Defs[d.Name].(*types.Func)
			self := []types.Object{fn}
			if recv := receiverNamed(fn); recv != nil {
				self = append(self, recv.Obj())
			}
			s.walkUses(info, d, self)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				var self []types.Object
				switch sp := spec.(type) {
				case *ast.ImportSpec:
					continue
				case *ast.TypeSpec:
					self = append(self, info.Defs[sp.Name])
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						self = append(self, info.Defs[id])
					}
				}
				s.walkUses(info, spec, self)
			}
		}
	}
}

// walkUses is markUses' walk of one declaration; self holds the objects
// that declaration introduces.
func (s *exportScan) walkUses(info *types.Info, root ast.Node, self []types.Object) {
	ast.Inspect(root, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := origin(info.Uses[id])
		if obj == nil {
			return true
		}
		for _, o := range self {
			if o == obj {
				return true
			}
		}
		s.used[obj] = true
		if fn, ok := obj.(*types.Func); ok {
			if iface := interfaceOf(fn); iface != nil {
				s.selected.add(fn.Name(), iface)
			}
		}
		return true
	})
}

// markWrites records the fields f sets: a composite-literal key, an
// assignment or increment target, or an address taken (a flag bound to a
// field sets it). Every field on the target's path is written: x.A.B = v
// sets B in A.
func (s *exportScan) markWrites(info *types.Info, f *ast.File) {
	writeTarget := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				s.written[origin(info.Uses[x.Sel])] = true
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
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						s.written[origin(info.Uses[id])] = true
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

// loadStdlib resolves stdlibInterfaces.
func (s *exportScan) loadStdlib() error {
	for _, name := range stdlibInterfaces {
		var obj types.Object
		if i := strings.LastIndex(name, "."); i < 0 {
			obj = types.Universe.Lookup(name)
		} else {
			pkg, err := stdlib().Import(name[:i])
			if err != nil {
				return err
			}
			obj = pkg.Scope().Lookup(name[i+1:])
		}
		if obj == nil {
			return fmt.Errorf("stdlibInterfaces: %s not found", name)
		}
		iface := obj.Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			s.stdlib.add(iface.Method(i).Name(), iface)
		}
		if name == "error" {
			for m := range errorConventions {
				s.stdlib.add(m, iface)
			}
		}
	}
	return nil
}

// isUnused reports whether shipping code never uses the declared obj.
func (s *exportScan) isUnused(obj types.Object) bool {
	if s.fields[obj] {
		return !s.written[obj]
	}
	if s.used[obj] {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return true
	}
	recv := receiverNamed(fn)
	if recv == nil {
		return true // a function: only a direct use counts
	}
	return !s.selected.implementedBy(recv, fn.Name()) && !s.stdlib.implementedBy(recv, fn.Name())
}

// receiverNamed returns the named type a method is declared on, or nil
// for a function.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// interfaceOf returns the interface an abstract method is declared in, or
// nil for a concrete method or a function.
func interfaceOf(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

// origin maps a use of an instantiated generic method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// TestUnusedExportsChecker feeds the checker in-memory sources, one
// verdict per rule.
func TestUnusedExportsChecker(t *testing.T) {
	const decl = "package a\n\nfunc Used() {}\n\nfunc Unused() {}\n"
	const typeT = "package a\n\ntype T struct{}\n\nfunc (T) M() {}\n"
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
				"internal/a/a.go":  typeT,
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\ntype runner interface{ M() }\n\nfunc main() {\n\tvar r runner = a.T{}\n\tr.M()\n}\n",
			},
		},
		{
			name: "method a module interface names, never selected",
			files: map[string]string{
				"internal/a/a.go":  typeT,
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\ntype runner interface{ M() }\n\nvar _ runner = a.T{}\n\nfunc main() {}\n",
			},
			want: []string{"internal/a.T.M is exported"},
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
			name: "two types sharing a method name, only one of them called",
			files: map[string]string{
				"internal/a/a.go":  typeT + "\ntype U struct{}\n\nfunc (U) M() {}\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() {\n\ta.T{}.M()\n\t_ = a.U{}\n}\n",
			},
			want: []string{"internal/a.U.M is exported"},
		},
		{
			name: "a method selected through an interface its type does not implement",
			files: map[string]string{
				"internal/a/a.go":  typeT,
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\ntype runner interface {\n\tM()\n\tN()\n}\n\nfunc main() {\n\tvar r runner\n\tr.M()\n\t_ = a.T{}\n}\n",
			},
			want: []string{"internal/a.T.M is exported"},
		},
		{
			name: "Read(int) on a type that is not an io.Reader",
			files: map[string]string{
				"internal/a/a.go":  "package a\n\ntype Meter struct{}\n\nfunc (Meter) Read(cpu int) float64 { return 0 }\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { _ = a.Meter{} }\n",
			},
			want: []string{"internal/a.Meter.Read is exported"},
		},
		{
			name: "Unwrap on an error type is exempt",
			files: map[string]string{
				"internal/a/a.go":  "package a\n\ntype E struct{ err error }\n\nfunc (e E) Error() string { return \"e\" }\n\nfunc (e E) Unwrap() error { return e.err }\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() {\n\tvar err error = a.E{}\n\t_ = err\n}\n",
			},
		},
		{
			name: "a method value counts as a use",
			files: map[string]string{
				"internal/a/a.go":  typeT,
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() {\n\tf := a.T{}.M\n\tf()\n}\n",
			},
		},
		{
			name: "a promoted method called through an embedding struct counts as a use",
			files: map[string]string{
				"internal/a/a.go":  typeT,
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\ntype outer struct{ a.T }\n\nfunc main() { outer{}.M() }\n",
			},
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
			name: "a field of another struct with an option field's name sets nothing",
			files: map[string]string{
				"internal/a/a.go":  "package a\n\ntype Config struct{ Rate int }\n\ntype Point struct{ Rate int }\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() {\n\t_ = a.Point{Rate: 1}\n\tvar c a.Config\n\t_ = c\n}\n",
			},
			want: []string{"internal/a.Config.Rate is an option field"},
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
			got, err := unusedExports(fset, files, tc.allow)
			if err != nil {
				t.Fatal(err)
			}
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
