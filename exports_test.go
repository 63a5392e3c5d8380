package repro_test

// The dead-export guard. In non-test Go under internal/ and cmd/, every
// exported top-level func, type, var and const must be referenced, every
// exported method called, and every exported field of an option struct
// both set and read, by a non-test file outside bench/ — or be listed in
// unusedAllow with its reason. A read inside the option type's own
// Validate method does not count: a field only its check reads changes
// nothing. Nor does a default fill count as a set: x.F = d inside
// if x.F == <zero> gives no caller a way to choose F. An allowlist entry that no longer names an unused
// declaration fails too, so the list can only shrink.
//
// The guard type-checks the module (go/types, the standard library from
// the compiler's export data) and matches uses by object, not by name: a selector .M counts
// for the one method M it resolves to. A method is also called when
// shipping code selects an interface method of the same name and the
// method's type implements that interface, and it is exempt when its type
// implements one of stdlibInterfaces, which the standard library calls.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
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
	"internal/engine.NewTimeline": "bench-pinned (bench/des.go, bench/probes.go); ROADMAP 1(b) deletes it",
	"internal/netcluster.NewRoot": "bench-pinned (bench/rounds.go); ROADMAP 1(b) builds rounds with NewFleet",
	"internal/optimal.Greedy":     "bench-pinned (bench/probes.go); ROADMAP 1(b) moves it into _test.go",
	"internal/stats.Mean":         "bench-pinned (bench/run.go); ROADMAP 1(a) gives bench/ its own copies of what only it uses",
	"internal/stats.Min":          "bench-pinned (bench/compare.go); ROADMAP 1(a) gives bench/ its own copies of what only it uses",
	"internal/stats.Max":          "bench-pinned (bench/compare.go, bench/run.go); ROADMAP 1(a) gives bench/ its own copies of what only it uses",
	"internal/farm.NewHolder":     "cross-package test input: a lone lease holder for the cluster and invariant tests",

	"internal/engine.Timeline.Post":               "bench-pinned (bench/des.go, bench/probes.go); ROADMAP 1(b) deletes the Timeline",
	"internal/engine.Timeline.Cancel":             "bench-pinned with its Timeline (the engine tests and FuzzTimelineOps drive it); ROADMAP 1(b) deletes the Timeline",
	"internal/engine.HandlerFunc":                 "bench-pinned (bench/probes.go); ROADMAP 1(b) deletes the Timeline",
	"internal/machine.Machine.NextArrivalAt":      "bench-pinned (bench/des.go); goes with ROADMAP 1's bench work",
	"internal/fvsst.Scheduler.SetDecisionLogging": "no-op; deleted with ROADMAP 1(a)",
	"internal/netcluster.Root.RootDecisions":      "bench-pinned (bench/rounds.go); goes with ROADMAP 1's bench work",
	"internal/machine.Machine.Step":               "bench-pinned (bench/probes.go); ROADMAP 1(b) deletes it once bench/ steps with StepQuantum",
	"internal/machine.Machine.Energy":             "bench-pinned (bench/des.go digests it); goes with ROADMAP 1's bench work",
	"internal/machine.Machine.AdvanceTo":          "bench-pinned (bench/des.go, bench/probes.go); no shipping loop advances a machine to a time, and ROADMAP 1(b) unexports it",
	"internal/engine.Timeline.AdvanceTo":          "bench-pinned (bench/des.go, bench/probes.go); ROADMAP 1(b) deletes the Timeline",
	"internal/netcluster.Relay.Coordinator":       "bench-pinned (bench/rounds.go); goes with ROADMAP 1's bench work",
	"internal/serve.Station.QueueLen":             "bench-pinned (bench/probes.go); goes with ROADMAP 1's bench work",
	"internal/machine.Config.MeterNoiseSigma":     "bench-pinned (bench/probes.go zeroes it); nothing reads it, and ROADMAP 1(a) drops the write",
	"internal/machine.Machine.AdvanceStats":       "planned: ROADMAP 8(c) wires the fast-forward counts into obs",
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

// stdlib imports the standard library from the compiler's export data,
// once per process: every type-check shares its packages, so their types
// stay identical. One `go list -export -deps ./...` names the export file
// of every standard package the module imports; a package outside that set
// (the checker's self-test modules and stdlibInterfaces import
// container/heap) is listed on its first import.
var stdlib = sync.OnceValues(func() (types.Importer, error) {
	exports, err := stdlibExports("./...")
	if err != nil {
		return nil, err
	}
	lookup := func(importPath string) (io.ReadCloser, error) {
		if _, ok := exports[importPath]; !ok {
			more, err := stdlibExports(importPath)
			if err != nil {
				return nil, err
			}
			exports[importPath] = more[importPath]
		}
		if exports[importPath] == "" {
			return nil, fmt.Errorf("no export data for %s", importPath)
		}
		return os.Open(exports[importPath])
	}
	return importer.ForCompiler(token.NewFileSet(), "gc", lookup), nil
})

// stdlibExports maps every standard package in the import graph of pattern
// to its export data file, building what the build cache lacks.
func stdlibExports(pattern string) (map[string]string, error) {
	out, err := exec.Command("go", "list", "-export", "-deps",
		"-f", "{{if .Standard}}{{.ImportPath}}\t{{.Export}}{{end}}", pattern).Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%w: %s", err, exit.Stderr)
		}
		return nil, fmt.Errorf("go list -export %s: %w", pattern, err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if importPath, file, ok := strings.Cut(line, "\t"); ok {
			exports[importPath] = file
		}
	}
	return exports, nil
}

// theModule loads the module once per test binary: every .go file outside
// testdata and hidden directories is parsed, and loadModule type-checks
// the non-test packages outside bench/. The dead-export guard and the structural
// guards in guards_test.go both read it.
var theModule = sync.OnceValues(func() (*module, error) {
	if _, err := stdlib(); err != nil {
		return nil, err
	}
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
		return nil, err
	}
	return loadModule(fset, files)
})

func TestNoUnusedExports(t *testing.T) {
	m, err := theModule()
	if err != nil {
		t.Fatal(err)
	}
	problems, err := unusedExports(m, unusedAllow)
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

// module is the module's non-test Go outside bench/, type-checked one
// package at a time, and its test files, parsed only. As the importer of
// its own packages it checks each once, from its non-test files, and
// imports everything else from the standard library.
type module struct {
	fset  *token.FileSet
	dirs  []string               // the package dirs, sorted
	files map[string][]*ast.File // non-test files by package dir
	tests []*ast.File            // the _test.go files
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

// loadModule type-checks the non-test files outside bench/ by package dir
// and keeps the test files outside bench/ parsed. Test files and bench/
// are never type-checked.
func loadModule(fset *token.FileSet, files []srcFile) (*module, error) {
	m := &module{fset: fset, files: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	for _, sf := range files {
		dir := path.Dir(sf.path)
		switch {
		case dir == "bench" || strings.HasPrefix(dir, "bench/"):
		case strings.HasSuffix(sf.path, "_test.go"):
			m.tests = append(m.tests, sf.file)
		default:
			if m.files[dir] == nil {
				m.dirs = append(m.dirs, dir)
			}
			m.files[dir] = append(m.files[dir], sf.file)
		}
	}
	sort.Strings(m.dirs)
	for _, dir := range m.dirs {
		if _, err := m.check(dir); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *module) Import(importPath string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(importPath, modulePath+"/"); ok {
		return m.check(dir)
	}
	std, err := stdlib()
	if err != nil {
		return nil, err
	}
	return std.Import(importPath)
}

// check type-checks the package in dir, or returns the one already checked.
func (m *module) check(dir string) (*types.Package, error) {
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
	keys    map[string]types.Object          // key → the declared object
	problem map[string]string                // key → the problem if it goes unused
	fields  map[types.Object]*types.TypeName // option field → its option type

	used     map[types.Object]bool // what shipping code refers to
	written  map[types.Object]bool // the fields shipping code sets
	read     map[types.Object]bool // the fields shipping code reads
	writeSel map[*ast.Ident]bool   // selector names in a write position
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
// and one per allow entry that is not such a name.
func unusedExports(m *module, allow map[string]string) ([]string, error) {
	s := exportScan{
		keys: map[string]types.Object{}, problem: map[string]string{}, fields: map[types.Object]*types.TypeName{},
		used: map[types.Object]bool{}, written: map[types.Object]bool{}, read: map[types.Object]bool{},
		writeSel: map[*ast.Ident]bool{}, selected: ifaceSet{}, stdlib: ifaceSet{},
	}
	for _, dir := range m.dirs {
		if strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
			s.declare(dir, m.pkgs[dir])
		}
	}
	for _, dir := range m.dirs {
		for _, f := range m.files[dir] {
			s.markUses(m.infos[dir], f)
			s.markWrites(m.infos[dir], f)
			s.markReads(m.infos[dir], f)
		}
	}
	if err := s.loadStdlib(); err != nil {
		return nil, err
	}

	var problems []string
	for key, obj := range s.keys {
		if s.isUnused(obj) {
			if _, ok := allow[key]; !ok {
				problems = append(problems, key+s.problemOf(key, obj))
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
	unreadField  = " is an option field no non-test code outside bench/ reads, its type's Validate aside: delete it, or allowlist it with a reason"
)

func (s *exportScan) add(obj types.Object, key, problem string) {
	s.keys[key] = obj
	s.problem[key] = problem
}

// problemOf returns the problem an unused declaration reports: for an
// option field that is set but never read, the read rule's.
func (s *exportScan) problemOf(key string, obj types.Object) string {
	if s.fields[obj] != nil && s.written[obj] {
		return unreadField
	}
	return s.problem[key]
}

// declare records pkg's exported top-level names, the exported methods of
// its named types, and, under internal/, the exported fields of its
// option structs: the …Config and …Options types and every exported type
// with a Validate method.
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
		validated := false
		for i := 0; i < named.NumMethods(); i++ {
			fn := named.Method(i)
			if fn.Exported() {
				s.add(fn, dir+"."+name+"."+fn.Name(), unusedMethod)
			}
			validated = validated || fn.Name() == "Validate"
		}
		if strings.HasPrefix(dir, "internal/") && tn.Exported() &&
			(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || validated) {
			s.declareFields(dir, tn, tn)
		}
	}
}

// declareFields declares the exported fields of tn's struct, and of the
// same-package struct types those hold by value, as fields of the option
// type opt.
func (s *exportScan) declareFields(dir string, tn, opt *types.TypeName) {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() || f.Embedded() || s.fields[f] != nil {
			continue
		}
		s.add(f, dir+"."+tn.Name()+"."+f.Name(), unsetField)
		s.fields[f] = opt
		if n, ok := types.Unalias(f.Type()).(*types.Named); ok && n.Obj().Pkg() == tn.Pkg() {
			s.declareFields(dir, n.Obj(), opt)
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
// sets B in A. A default fill — x.F = e inside if x.F == <zero> { … },
// zero being 0, "", nil or T{} — sets nothing: it only stands in for a
// value no caller gave.
func (s *exportScan) markWrites(info *types.Info, f *ast.File) {
	fills := defaultFills(f)
	writeTarget := func(e ast.Expr) {
		fill := fills[e]
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if !fill {
					s.written[origin(info.Uses[x.Sel])] = true
				}
				s.writeSel[x.Sel] = true
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

// defaultFills returns the assignment targets in f that are default
// fills: x.F on the left of an = inside if x.F == <zero> { … }, matched on
// the selector's source text.
func defaultFills(f *ast.File) map[ast.Expr]bool {
	fills := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			return true
		}
		sel, zero := cond.X, cond.Y
		if isZero(sel) {
			sel, zero = zero, sel
		}
		if _, ok := sel.(*ast.SelectorExpr); !ok || !isZero(zero) {
			return true
		}
		want := types.ExprString(sel)
		ast.Inspect(ifs.Body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
				for _, lhs := range as.Lhs {
					if types.ExprString(lhs) == want {
						fills[lhs] = true
					}
				}
			}
			return true
		})
		return true
	})
	return fills
}

// isZero reports whether e is written as a zero value: 0, "", nil or T{}.
func isZero(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return x.Value == "0" || x.Value == `""`
	case *ast.Ident:
		return x.Name == "nil"
	case *ast.CompositeLit:
		return len(x.Elts) == 0
	}
	return false
}

// markReads records the option fields f reads: a selector that names
// one outside a write position (markWrites runs first), except inside the
// field's own option type's Validate method.
func (s *exportScan) markReads(info *types.Info, f *ast.File) {
	for _, decl := range f.Decls {
		var validated types.Object
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "Validate" {
			if recv := receiverNamed(info.Defs[fd.Name].(*types.Func)); recv != nil {
				validated = recv.Obj()
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || s.writeSel[sel.Sel] {
				return true
			}
			obj := origin(info.Uses[sel.Sel])
			if opt := s.fields[obj]; opt != nil && opt != validated {
				s.read[obj] = true
			}
			return true
		})
	}
}

// loadStdlib resolves stdlibInterfaces.
func (s *exportScan) loadStdlib() error {
	for _, name := range stdlibInterfaces {
		var obj types.Object
		if i := strings.LastIndex(name, "."); i < 0 {
			obj = types.Universe.Lookup(name)
		} else {
			std, err := stdlib()
			if err != nil {
				return err
			}
			pkg, err := std.Import(name[:i])
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
	if s.fields[obj] != nil {
		return !s.written[obj] || !s.read[obj]
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
				"internal/a/a.go":      "package a\n\ntype Config struct{ Set, Unset int }\n\nfunc Default() Config { return Config{Set: 1} }\n\nfunc (c Config) sum() int { return c.Set + c.Unset }\n",
				"internal/a/a_test.go": "package a\n\nfunc use() {\n\tc := Default()\n\tc.Unset = 2\n}\n",
				"cmd/tool/main.go":     "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.Default() }\n",
			},
			want: []string{"internal/a.Config.Unset is an option field"},
		},
		{
			name: "Options fields set by a composite-literal key or an assignment",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Options struct {\n\tRate  int\n\tInner Overhead\n\tTail  Overhead\n}\n\n" +
					"type Overhead struct{ Cost, Lag int }\n\ntype Point struct{ X int }\n\nvar _ Point\n\n" +
					"func (o Options) sum() int { return o.Rate + o.Inner.Cost + o.Tail.Lag }\n",
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
			name: "option fields read only in their type's Validate or on a write path",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Config struct {\n\tRate  int\n\tUsed  int\n\tInner Overhead\n}\n\n" +
					"type Overhead struct{ Cost int }\n\nfunc (c *Config) Validate() bool { return c.Rate >= 0 && c.Inner.Cost >= 0 }\n\n" +
					"func Run(c Config) int { return c.Used }\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() {\n\tc := a.Config{Rate: 1, Used: 2}\n" +
					"\tc.Inner.Cost = 3\n\t_ = c.Validate()\n\ta.Run(c)\n}\n",
				"internal/a/a_test.go": "package a\n\nfunc use(c Config) int { return c.Rate + c.Inner.Cost }\n",
			},
			want: []string{
				"internal/a.Config.Inner is an option field no non-test code outside bench/ reads",
				"internal/a.Config.Rate is an option field no non-test code outside bench/ reads",
				"internal/a.Overhead.Cost is an option field no non-test code outside bench/ reads",
			},
		},
		{
			name: "an option field read outside its own type's Validate",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Config struct{ Rate int }\n\nfunc (c Config) Validate() bool { return c.Rate > 0 }\n\n" +
					"type Spec struct{ C Config }\n\nfunc (s Spec) Valid() bool { return s.C.Validate() && s.C.Rate < 9 }\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { _ = a.Spec{C: a.Config{Rate: 1}}.Valid() }\n",
			},
		},
		{
			name: "an exported struct with a Validate method is an option type",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Policy struct{ Drop, Jitter, Spare int }\n\n" +
					"func (p Policy) Validate() bool { return p.Drop >= 0 && p.Jitter >= 0 }\n\n" +
					"func Run(p Policy) int { return p.Drop + p.Spare }\n\n" +
					"type hidden struct{ Unset int }\n\nfunc (h hidden) Validate() bool { return h.Unset > 0 }\n\nvar _ = hidden{}.Validate()\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() {\n\tp := a.Policy{Drop: 1, Jitter: 2}\n\t_ = p.Validate()\n\ta.Run(p)\n}\n",
			},
			want: []string{
				"internal/a.Policy.Jitter is an option field no non-test code outside bench/ reads",
				"internal/a.Policy.Spare is an option field no non-test code outside bench/ sets",
			},
		},
		{
			name: "an option field whose only write is its own default fill",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Options struct {\n\tTimeout int\n\tName    string\n\tNext    *Options\n}\n\n" +
					"func Run(o Options) int {\n\tif o.Timeout == 0 {\n\t\to.Timeout = 150\n\t}\n\tif \"\" == o.Name {\n\t\to.Name = \"x\"\n\t}\n" +
					"\tif o.Next == nil {\n\t\to.Next = &Options{}\n\t}\n\treturn o.Timeout + len(o.Name) + o.Next.Timeout\n}\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.Run(a.Options{}) }\n",
			},
			want: []string{
				"internal/a.Options.Name is an option field no non-test code outside bench/ sets",
				"internal/a.Options.Next is an option field no non-test code outside bench/ sets",
				"internal/a.Options.Timeout is an option field no non-test code outside bench/ sets",
			},
		},
		{
			name: "a default-filled option field a caller also sets",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Config struct{ Timeout int }\n\n" +
					"func Run(c Config) int {\n\tif c.Timeout == 0 {\n\t\tc.Timeout = 150\n\t}\n\treturn c.Timeout\n}\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.Run(a.Config{Timeout: 40}) }\n",
			},
		},
		{
			name: "stale Type.Method and Type.Field entries",
			files: map[string]string{
				"internal/a/a.go":  "package a\n\ntype T struct{}\n\nfunc (T) M() {}\n\ntype Config struct{ Rate int }\n",
				"cmd/tool/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() {\n\ta.T{}.M()\n\t_ = a.Config{Rate: 1}.Rate\n}\n",
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
			m, err := loadModule(fset, files)
			if err != nil {
				t.Fatal(err)
			}
			got, err := unusedExports(m, tc.allow)
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
