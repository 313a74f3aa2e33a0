package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"adcache"
	"adcache/internal/cluster"
	"adcache/internal/core"
	"adcache/internal/harness"
	"adcache/internal/lsm"
	"adcache/internal/rl"
)

var update = flag.Bool("update", false, "rewrite testdata/options_surface.golden from the running code")

// surfaceStructs are the config structs whose exported fields are settable
// values.
var surfaceStructs = []any{adcache.Options{}, core.Config{}, lsm.Options{}, rl.Config{}, harness.Config{}, cluster.ManagerOptions{}}

// optionPackages are the packages whose exported With* functions are
// settable values (functional options).
var optionPackages = []string{"adcache/internal/server", "adcache/client"}

// optionsSurface lists every settable value, one per line: the exported
// fields of the config structs in declaration order, the With* options of
// the option packages in name order, then adbench's flags.
func optionsSurface() (string, error) {
	var b strings.Builder
	for _, v := range surfaceStructs {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fmt.Fprintf(&b, "%s.%s\n", typ, f.Name)
			}
		}
	}
	for _, path := range optionPackages {
		dir := filepath.Join("..", "..", strings.TrimPrefix(path, "adcache/"))
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return "", err
		}
		var names []string
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return "", err
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() && strings.HasPrefix(fd.Name.Name, "With") {
					names = append(names, fd.Name.Name)
				}
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s.%s\n", bp.Name, name)
		}
	}
	fs := flag.NewFlagSet("adbench", flag.ContinueOnError)
	new(options).register(fs)
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&b, "adbench -%s\n", f.Name) })
	return b.String(), nil
}

// TestOptionsSurface pins the settable values so that a knob is added only
// on purpose: regenerate with -update when one is, and say in the change
// what sets it.
func TestOptionsSurface(t *testing.T) {
	path := filepath.Join("testdata", "options_surface.golden")
	got, err := optionsSurface()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("settable values changed (rerun with -update if on purpose)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExperimentNames checks that every -exp name is unique, that all
// covers the paper's figures, and which experiments run at the given scale
// (only those print it in their header).
func TestExperimentNames(t *testing.T) {
	seen := map[string]bool{}
	var all []string
	for _, e := range experiments() {
		if seen[e.name] {
			t.Errorf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
		if e.all {
			all = append(all, e.name)
		}
	}
	if got, want := strings.Join(all, " "), "table2 fig1 fig6 fig7 fig8 fig9 fig10 fig11a fig11b ablations"; got != want {
		t.Errorf("-exp all runs %q, want %q", got, want)
	}
	var scaled []string
	for _, e := range harness.Experiments {
		if e.Scaled {
			scaled = append(scaled, e.Name)
		}
	}
	if got, want := strings.Join(scaled, " "), "fig1 fig6 fig7 fig8 fig9 fig10 fig11a fig11b ablations calibrate"; got != want {
		t.Errorf("scaled experiments are %q, want %q", got, want)
	}
}

// ciFilter finds the -run, -bench and -fuzz patterns of the CI workflow's
// go test commands, quoted or one word.
var ciFilter = regexp.MustCompile(`-(run|bench|fuzz) +(?:'([^']*)'|([^\s']+))`)

// TestCIFiltersMatchTests checks that every |-alternative of a -run, -bench
// or -fuzz pattern in the CI workflow matches a Test, Fuzz or Benchmark
// function of the module or of its bench/ module: a CI step whose filter
// names a deleted or renamed test would otherwise pass by running nothing.
// "-run -" runs no test on purpose.
func TestCIFiltersMatchTests(t *testing.T) {
	root := filepath.Join("..", "..")
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	names, err := testFuncNames(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ciFilter.FindAllString(string(ci), -1)) == 0 {
		t.Fatal("no -run, -bench or -fuzz filter in the CI workflow")
	}
	for _, stale := range staleCIFilters(string(ci), names) {
		t.Error(stale)
	}
}

// expName finds the experiment name of each "adbench -exp NAME" command.
var expName = regexp.MustCompile("adbench[^\\n`]*?-exp[ =]+([A-Za-z][\\w-]*)")

// TestDocumentedExperimentsExist checks that every "adbench -exp NAME" in
// the CI workflow, README.md and the verify skill names all or an entry of
// experiments(): a step or recipe left behind by a deleted experiment would
// otherwise only fail when someone runs it.
func TestDocumentedExperimentsExist(t *testing.T) {
	root := filepath.Join("..", "..")
	known := map[string]bool{"all": true}
	for _, e := range experiments() {
		known[e.name] = true
	}
	for _, rel := range []string{".github/workflows/ci.yml", "README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range expName.FindAllStringSubmatch(string(text), -1) {
			if !known[m[1]] {
				t.Errorf("%s: %q names no experiment", rel, m[0])
			}
		}
	}
}

// staleCIFilters returns one message for each |-alternative of a -run,
// -bench or -fuzz pattern in ci that matches none of names.
func staleCIFilters(ci string, names []string) []string {
	var stale []string
	for _, m := range ciFilter.FindAllStringSubmatch(ci, -1) {
		pattern := m[2] + m[3]
		if pattern == "-" {
			continue
		}
		// go test matches what precedes the first '/' against top-level
		// functions; the rest selects subtests.
		top, _, _ := strings.Cut(pattern, "/")
		for _, alt := range strings.Split(top, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				stale = append(stale, fmt.Sprintf("CI -%s filter %q: %v", m[1], pattern, err))
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				stale = append(stale, fmt.Sprintf("CI -%s filter: %q matches no Test, Fuzz or Benchmark function", m[1], alt))
			}
		}
	}
	return stale
}

// TestStaleCIFilterIsReported: the check above names exactly the
// alternatives that match no function, in quoted and one-word patterns
// alike; "-run -" and the subtest part of a pattern are not checked.
func TestStaleCIFilterIsReported(t *testing.T) {
	const ci = `
      - run: go test -run 'TestKept|TestGone' ./internal/a
      - run: go test -run - -bench BenchmarkKept ./internal/b
      - run: go test -run 'TestKept/case|Fuzz' -fuzz FuzzGone ./internal/c
      - run: go test -bench 'BenchmarkMissing|Benchmark' ./internal/d
`
	names := []string{"TestKept", "BenchmarkKept", "FuzzKept"}
	got := staleCIFilters(ci, names)
	want := []string{
		`CI -run filter: "TestGone" matches no Test, Fuzz or Benchmark function`,
		`CI -fuzz filter: "FuzzGone" matches no Test, Fuzz or Benchmark function`,
		`CI -bench filter: "BenchmarkMissing" matches no Test, Fuzz or Benchmark function`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stale filters:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got := staleCIFilters(ci, append(names, "TestGone", "FuzzGone", "BenchmarkMissing")); len(got) != 0 {
		t.Fatalf("every name declared, still reported: %q", got)
	}
}

// testFuncNames returns the Test, Fuzz and Benchmark functions declared in
// the test files under root.
func testFuncNames(root string) ([]string, error) {
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
					break
				}
			}
		}
		return nil
	})
	return names, err
}

// TestEverySettingHasACaller checks that every settable value — each field
// of the surface structs and each server.With*/client.With* option — is set
// by a program in the module, not only by tests: a field as a
// composite-literal key of its struct or as the target of an assignment, an
// option by a reference to it. Test files, the examples and the defaults a
// setting's own package fills in do not count. The check is type-aware, so
// setting a field of the same name on another struct does not count.
func TestEverySettingHasACaller(t *testing.T) {
	l := newModuleLoader(filepath.Join("..", ".."))
	if err := l.loadAll(); err != nil {
		t.Fatal(err)
	}

	// The settings, by the object that declares them.
	settings := map[types.Object]string{}
	for _, v := range surfaceStructs {
		typ := reflect.TypeOf(v)
		pkg := l.pkgs[typ.PkgPath()]
		if pkg == nil {
			t.Fatalf("package %s not loaded", typ.PkgPath())
		}
		st := pkg.Scope().Lookup(typ.Name()).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				settings[f] = fmt.Sprintf("%s.%s", typ, f.Name())
			}
		}
	}
	for _, path := range optionPackages {
		pkg := l.pkgs[path]
		if pkg == nil {
			t.Fatalf("package %s not loaded", path)
		}
		for _, name := range pkg.Scope().Names() {
			if fn, ok := pkg.Scope().Lookup(name).(*types.Func); ok && fn.Exported() && strings.HasPrefix(name, "With") {
				settings[fn] = pkg.Name() + "." + name
			}
		}
	}

	set := map[types.Object]bool{}
	// fill is one field an assignment sets as a default.
	type fill struct {
		as  *ast.AssignStmt
		obj types.Object
	}
	for path, files := range l.files {
		pkg := l.pkgs[path]
		for _, f := range files {
			for _, decl := range f.Decls {
				// Defaults are not a caller choosing a value. In the
				// setting's own package, a function named for its defaults
				// does not count, and neither does an assignment to a field
				// anywhere in the body of an if whose condition reads that
				// field, such as "if c.N <= 0 { c.N = 8 }", nested ifs
				// included, whatever the value assigned.
				fd, _ := decl.(*ast.FuncDecl)
				inDefaults := fd != nil && strings.Contains(strings.ToLower(fd.Name.Name), "default")
				fills := map[fill]bool{}
				mark := func(obj types.Object, n ast.Node) {
					if obj.Pkg() == pkg {
						if as, _ := n.(*ast.AssignStmt); inDefaults || fills[fill{as, obj}] {
							return
						}
					}
					set[obj] = true
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.IfStmt:
						guarded := map[types.Object]bool{}
						ast.Inspect(n.Cond, func(c ast.Node) bool {
							if sel, ok := c.(*ast.SelectorExpr); ok {
								if s := l.info.Selections[sel]; s != nil {
									guarded[s.Obj()] = true
								}
							}
							return true
						})
						ast.Inspect(n.Body, func(c ast.Node) bool {
							as, ok := c.(*ast.AssignStmt)
							if !ok {
								return true
							}
							for _, lhs := range as.Lhs {
								sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
								if !ok {
									continue
								}
								if s := l.info.Selections[sel]; s != nil && guarded[s.Obj()] {
									fills[fill{as, s.Obj()}] = true
								}
							}
							return true
						})
					case *ast.CompositeLit:
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									if obj, ok := l.info.Uses[id].(*types.Var); ok && obj.IsField() {
										mark(obj, n)
									}
								}
							}
						}
					case *ast.AssignStmt:
						// x.A.B = v sets B, and through it A.
						for _, lhs := range n.Lhs {
							sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
							for ok {
								if s := l.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
									mark(s.Obj(), n)
								}
								sel, ok = ast.Unparen(sel.X).(*ast.SelectorExpr)
							}
						}
					case *ast.Ident:
						if fn, ok := l.info.Uses[n].(*types.Func); ok {
							mark(fn, n)
						}
					}
					return true
				})
			}
		}
	}

	var missing []string
	for obj, name := range settings {
		if !set[obj] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d settings are set by no program in the module, only by tests, examples or their defaults; make each a constant or an unexported field its package's tests set:\n%s",
			len(missing), strings.Join(missing, "\n"))
	}
}

// moduleLoader type-checks the non-test, non-example Go files of the module
// rooted at root from source; standard-library imports come from export
// data.
type moduleLoader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
}

func newModuleLoader(root string) *moduleLoader {
	fset := token.NewFileSet()
	return &moduleLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "gc", nil),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
}

// loadAll loads every package of the module outside examples/, testdata/
// and the separately built bench/ module.
func (l *moduleLoader) loadAll() error {
	return filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		name := d.Name()
		if rel != "." && (strings.HasPrefix(name, ".") || name == "testdata" || rel == "examples" || rel == "bench") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		_, err = l.Import(filepath.ToSlash(filepath.Join("adcache", rel)))
		return err
	})
}

// Import implements types.Importer.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	if path != "adcache" && !strings.HasPrefix(path, "adcache/") {
		return l.std.Import(path)
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, "adcache")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = pkg, files
	return pkg, nil
}
