package repro_test

// The structural guards. Each keeps one thing the module does in one
// place: one listener and accept loop for the control plane, one output
// harness for the daemons, one allocator round for the farm loops. A
// guard names a callee and the files allowed to refer to it, and it
// matches every reference in the type-checked module (theModule) by the
// object it resolves to, so an aliased import or a method value cannot
// slip past. A guard on an interface method also matches a method of the
// same name on any type that implements the interface. A decl guard
// forbids a name outright, in test files too, within its dirs if it
// names any.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// guard is one row of the table: a callee ("<import path>.<Name>" or
// "<import path>.<Type>.<Method>") that only the allowed files and
// package dirs may refer to, or a decl name that no file (under the
// within dirs, if any) may declare or name.
type guard struct {
	callee  string
	decl    string
	allowed []string
	within  []string
	why     string
}

const (
	outputsWhy = "the daemons open their trace, metrics file and /metrics endpoint through obs.OpenOutputs, not by hand"
	replayWhy  = "the bulk replay moves the clock and the meters through units.AddRepeat; the per-cell accessors the fused loop once needed stay gone"
	figureWhy  = "the figure series are recorded by internal/experiments' per-step observer; the scheduler packages carry no recorder of their own"
)

// schedulerDirs are the packages that schedule: the figure code observes
// them from internal/experiments, which they cannot import.
var schedulerDirs = []string{"internal/fvsst", "internal/cluster", "internal/netcluster"}

var guards = []guard{
	{callee: "net.Listen", allowed: []string{"internal/netcluster/server.go", "internal/obs/outputs.go"},
		why: "the control plane listens in the session server alone, and the /metrics endpoint in the output harness"},
	{callee: "net.Listener.Accept", allowed: []string{"internal/netcluster/server.go"},
		why: "the session server's accept loop is the one accept path"},
	{callee: "net.Pipe",
		why: "the in-process transport is the buffered pipe in internal/netcluster/pipe.go; net.Pipe is only its test oracle"},
	{callee: "repro/internal/obs.NewJSONLWriter", allowed: []string{"internal/obs"}, why: outputsWhy},
	{callee: "repro/internal/obs.Registry.WritePrometheus", allowed: []string{"internal/obs"}, why: outputsWhy},
	{callee: "net/http.Serve", allowed: []string{"internal/obs"}, why: outputsWhy},
	{callee: "repro/internal/farm.NewHolder", allowed: []string{"internal/farm"},
		why: "every farm loop runs on Allocator.Round: outside internal/farm, non-test Go builds no lone Holder"},
	{callee: "repro/internal/farm.Allocator.Allocate", allowed: []string{"internal/farm"},
		why: "every farm loop runs on Allocator.Round: outside internal/farm, non-test Go runs no allocation pass by hand"},
	{decl: "recorder", within: schedulerDirs, why: figureWhy},
	{decl: "Recorder", within: schedulerDirs, why: figureWhy},
	{callee: "repro/internal/obs.NewLedger", allowed: []string{"internal/obs", "cmd/experiments", "cmd/fvsst-sim"},
		why: "a run's summary is the ledger's report: experiments report renders it from a trace, fvsst-sim prints its sections at exit, and no package keeps a second account"},
	{callee: "repro/internal/fvsst.Scheduler.SetDecisionLogging",
		why: "the scheduler keeps no pass history, so the switch is a no-op that only bench/ (which no guard scans) may still call"},
	{decl: "ReplayCell", why: replayWhy},
	{decl: "ReplayCells", why: replayWhy},
}

func TestGuards(t *testing.T) {
	m, err := theModule()
	if err != nil {
		t.Fatal(err)
	}
	problems, err := guardProblems(m, guards)
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range problems {
		t.Error(problem)
	}
}

// guardProblems returns one "file:line: …" line per reference a guard
// forbids, sorted. A callee that does not resolve is an error: a guard
// on a renamed or deleted object would pass vacuously.
func guardProblems(m *module, gs []guard) ([]string, error) {
	targets := make([]types.Object, len(gs))
	for i, g := range gs {
		if g.callee == "" {
			continue
		}
		obj, err := m.lookup(g.callee)
		if err != nil {
			return nil, fmt.Errorf("guard %s: %w", g.callee, err)
		}
		targets[i] = obj
	}
	var problems []string
	report := func(id *ast.Ident, what, why string) {
		problems = append(problems, fmt.Sprintf("%s: %s: %s", m.fset.Position(id.Pos()), what, why))
	}
	named := func(file string, id *ast.Ident) {
		for _, g := range gs {
			if g.decl != "" && id.Name == g.decl && (len(g.within) == 0 || under(file, g.within)) {
				report(id, "names "+g.decl, g.why)
			}
		}
	}
	for _, dir := range m.dirs {
		info := m.infos[dir]
		for _, f := range m.files[dir] {
			file := m.fset.Position(f.Pos()).Filename
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				named(file, id)
				obj := origin(info.Uses[id])
				for i, g := range gs {
					if targets[i] != nil && refersTo(obj, targets[i]) && !g.allows(file) {
						report(id, "refers to "+g.callee, g.why)
					}
				}
				return true
			})
		}
	}
	for _, f := range m.tests {
		file := m.fset.Position(f.Pos()).Filename
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				named(file, id)
			}
			return true
		})
	}
	sort.Strings(problems)
	return problems, nil
}

// allows reports whether file is one of g's allowed files or lies under
// one of its allowed dirs.
func (g guard) allows(file string) bool { return under(file, g.allowed) }

// under reports whether file is one of paths or lies under one of them.
func under(file string, paths []string) bool {
	for _, a := range paths {
		if a == file || strings.HasPrefix(file, a+"/") {
			return true
		}
	}
	return false
}

// lookup resolves "<import path>.<Name>" or "<import path>.<Type>.<Method>"
// to its object, importing the package through m so the object is the
// one the module's references resolve to.
func (m *module) lookup(ref string) (types.Object, error) {
	slash := strings.LastIndex(ref, "/") + 1
	dot := strings.Index(ref[slash:], ".")
	if dot < 0 {
		return nil, fmt.Errorf("no package path")
	}
	pkg, err := m.Import(ref[:slash+dot])
	if err != nil {
		return nil, err
	}
	name, method, isMethod := strings.Cut(ref[slash+dot+1:], ".")
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil, fmt.Errorf("%s not found", name)
	}
	if isMethod {
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, pkg, method)
		if _, ok := obj.(*types.Func); !ok {
			return nil, fmt.Errorf("method %s not found", method)
		}
	}
	return obj, nil
}

// refersTo reports whether a reference to obj is one to target: the same
// object, or, when target is an interface method, a method of the same
// name whose receiver implements that interface.
func refersTo(obj, target types.Object) bool {
	if obj == nil {
		return false
	}
	if obj == target {
		return true
	}
	fn, ok := obj.(*types.Func)
	tfn, tok := target.(*types.Func)
	if !ok || !tok || fn.Name() != tfn.Name() {
		return false
	}
	iface := interfaceOf(tfn)
	recv := fn.Type().(*types.Signature).Recv()
	return iface != nil && recv != nil && types.Implements(recv.Type(), iface)
}

// TestGuardsChecker feeds guardProblems a module that breaks every guard
// once — through aliased imports, a method value, an embedded listener,
// a concrete listener type — beside the uses each guard allows.
func TestGuardsChecker(t *testing.T) {
	files := map[string]string{
		"internal/obs/obs.go": "package obs\n\nimport \"io\"\n\ntype Registry struct{}\n\n" +
			"func (*Registry) WritePrometheus(io.Writer) error { return nil }\n\nfunc NewJSONLWriter(io.Writer) {}\n\n" +
			"func NewLedger() {}\n\nfunc report() { NewLedger() }\n",
		"internal/obs/outputs.go": "package obs\n\nimport (\n\t\"net\"\n\t\"net/http\"\n)\n\n" +
			"func open() {\n\tln, _ := net.Listen(\"tcp\", \"\")\n\t_ = http.Serve(ln, nil)\n\tNewJSONLWriter(nil)\n}\n",
		"internal/farm/farm.go": "package farm\n\ntype Allocator struct{}\n\nfunc (*Allocator) Allocate() {}\n\n" +
			"func NewHolder() {}\n\nfunc (a *Allocator) Round() { a.Allocate() }\n",
		"internal/netcluster/server.go": "package netcluster\n\nimport \"net\"\n\n" +
			"func serve() {\n\tln, _ := net.Listen(\"tcp\", \"\")\n\tln.Accept()\n}\n",
		"internal/netcluster/relay.go": "package netcluster\n\nimport n \"net\"\n\n" +
			"type wrapped struct{ n.Listener }\n\n" +
			"func relay(w wrapped, tl *n.TCPListener) {\n\tn.Listen(\"tcp\", \"\")\n\tw.Accept()\n\ttl.Accept()\n}\n",
		"cmd/tool/main.go": "package main\n\nimport (\n\t\"net\"\n\n\tf \"repro/internal/farm\"\n\to \"repro/internal/obs\"\n)\n\n" +
			"type door struct{}\n\nfunc (door) Accept() {}\n\n" +
			"func main() {\n\to.NewJSONLWriter(nil)\n\t_ = new(o.Registry).WritePrometheus(nil)\n\tf.NewHolder()\n" +
			"\tall := (*f.Allocator).Allocate\n\t_ = all\n\tnet.Pipe()\n\tdoor{}.Accept()\n}\n",
		"internal/experiments/run.go": "package experiments\n\nimport \"repro/internal/obs\"\n\n" +
			"type recorder struct{}\n\nfunc run(rec *recorder) { obs.NewLedger() }\n",
		"internal/fvsst/driver.go": "package fvsst\n\ntype recorder struct{ samples []float64 }\n\ntype Driver struct{ rec *recorder }\n\n" +
			"type Scheduler struct{}\n\nfunc (*Scheduler) SetDecisionLogging(bool) {}\n",
		"internal/netcluster/trace_test.go": "package netcluster\n\ntype Recorder struct{}\n",
		"examples/phases/main.go":           "package main\n\ntype Recorder struct{}\n\nfunc main() { _ = new(Recorder) }\n",
		"cmd/fvsst-sim/main.go": "package main\n\nimport (\n\t\"repro/internal/fvsst\"\n\t\"repro/internal/obs\"\n)\n\n" +
			"func main() {\n\tobs.NewLedger()\n\tnew(fvsst.Scheduler).SetDecisionLogging(false)\n}\n",
		"internal/machine/m.go":      "package machine\n\ntype M struct{}\n\nfunc (M) ReplayCell() {}\n",
		"internal/machine/m_test.go": "package machine\n\nfunc ReplayCells() {}\n",
		"bench/run.go":               "package main\n\nimport \"net\"\n\nfunc main() { net.Pipe() }\n",
	}
	want := []string{ // sorted as text: relay.go's line 10 sorts before its 8
		"cmd/fvsst-sim/main.go:10:23: refers to repro/internal/fvsst.Scheduler.SetDecisionLogging",
		"cmd/tool/main.go:15:4: refers to repro/internal/obs.NewJSONLWriter",
		"cmd/tool/main.go:16:22: refers to repro/internal/obs.Registry.WritePrometheus",
		"cmd/tool/main.go:17:4: refers to repro/internal/farm.NewHolder",
		"cmd/tool/main.go:18:24: refers to repro/internal/farm.Allocator.Allocate",
		"cmd/tool/main.go:20:6: refers to net.Pipe",
		"internal/experiments/run.go:7:31: refers to repro/internal/obs.NewLedger",
		"internal/fvsst/driver.go:3:6: names recorder",
		"internal/fvsst/driver.go:5:26: names recorder",
		"internal/machine/m.go:5:10: names ReplayCell",
		"internal/machine/m_test.go:3:6: names ReplayCells",
		"internal/netcluster/relay.go:10:5: refers to net.Listener.Accept",
		"internal/netcluster/relay.go:8:4: refers to net.Listen",
		"internal/netcluster/relay.go:9:4: refers to net.Listener.Accept",
		"internal/netcluster/trace_test.go:3:6: names Recorder",
	}
	fset := token.NewFileSet()
	var srcs []srcFile
	for p, src := range files {
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, srcFile{path: p, file: f})
	}
	m, err := loadModule(fset, srcs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := guardProblems(m, guards)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(got[i], w+": ") {
			t.Errorf("problem %d = %q, want it to start %q", i, got[i], w)
		}
	}
	if _, err := guardProblems(m, []guard{{callee: "repro/internal/obs.Gone"}}); err == nil {
		t.Error("a guard on a missing callee passed")
	}
}

// fuzzLine matches one fuzz session of the Makefile's fuzz target: the
// target's name and its package dir.
var fuzzLine = regexp.MustCompile(`^\t\$\(GO\) test -fuzz (\w+) -fuzztime \$\(FUZZTIME\) \./(\S+?)/?$`)

// TestMakeFuzzListsEveryTarget holds the Makefile's fuzz target to the
// fuzz targets the test files declare: the Makefile is the one list the
// fuzz runs read, so a target missing from it is never fuzzed.
func TestMakeFuzzListsEveryTarget(t *testing.T) {
	m, err := theModule()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed, err := makeFuzzTargets(string(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range unlistedFuzzTargets(m, listed) {
		t.Error(problem)
	}
}

// makeFuzzTargets returns the "<dir>.<Name>" of each session in the
// Makefile's fuzz recipe.
func makeFuzzTargets(makefile string) (map[string]bool, error) {
	_, recipe, ok := strings.Cut(makefile, "\nfuzz:\n")
	if !ok {
		return nil, fmt.Errorf("Makefile has no fuzz target")
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		sub := fuzzLine.FindStringSubmatch(line)
		if sub == nil {
			return nil, fmt.Errorf("fuzz recipe line %q is not one session at $(FUZZTIME)", line)
		}
		listed[sub[2]+"."+sub[1]] = true
	}
	return listed, nil
}

// unlistedFuzzTargets returns one line per Fuzz function a test file
// declares that listed lacks, and one per listed session no test file
// declares.
func unlistedFuzzTargets(m *module, listed map[string]bool) []string {
	var problems []string
	declared := map[string]bool{}
	for _, f := range m.tests {
		file := m.fset.Position(f.Pos()).Filename
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Fuzz") {
				continue
			}
			key := path.Dir(file) + "." + fd.Name.Name
			declared[key] = true
			if !listed[key] {
				problems = append(problems, fmt.Sprintf("%s: %s is not in the Makefile's fuzz target", m.fset.Position(fd.Pos()), fd.Name.Name))
			}
		}
	}
	for key := range listed {
		if !declared[key] {
			problems = append(problems, "the Makefile's fuzz target runs "+key+", which no test file declares")
		}
	}
	sort.Strings(problems)
	return problems
}
