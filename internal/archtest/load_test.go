package archtest

import (
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
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// modulePath is the module's import path, as go.mod names it.
const modulePath = "repro"

// A module is the parsed tree: each package's non-test files
// type-checked, its test files parsed and resolved by name.
type module struct {
	fset  *token.FileSet
	pkgs  map[string]*pkg // by import path
	order []*pkg          // every package after the packages it imports
	std   types.Importer
}

// A pkg is one directory of the module. Its files are named by their
// slash path from the module root, so a position's Filename is that path.
type pkg struct {
	path  string      // import path
	dir   string      // slash path from the module root, "." for the root
	files []*ast.File // non-test files
	tests []*ast.File // _test.go files, in-package and external
	types *types.Package
	info  *types.Info
}

var (
	loadOnce sync.Once
	loaded   *module
	loadErr  error
)

// tree returns the module this test runs in, loaded once per test binary.
func tree(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = load() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

// load parses every Go file under the module root, skipping testdata and
// dot directories as the go command does, and type-checks the non-test
// packages in import order. The standard library comes from its
// compiled export data (see stdImporter).
func load() (*module, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return m.add(filepath.ToSlash(rel), src)
	})
	if err != nil {
		return nil, err
	}
	if err := m.sort(); err != nil {
		return nil, err
	}
	if m.std, err = stdImporter(root, m); err != nil {
		return nil, err
	}
	for _, p := range m.order {
		if err := m.check(p, false); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// stdImporter returns the gc export-data importer that importer.Default
// is, with one change: the export files of every standard package the
// module's non-test files import are found by one `go list -export` run
// in root, not by one run per package, which is most of the load time
// otherwise. A package outside that list (a mutation row's import) is
// looked up on its own.
func stdImporter(root string, m *module) (types.Importer, error) {
	var paths []string
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if ip := importPath(imp); m.pkgs[ip] == nil && !slices.Contains(paths, ip) {
					paths = append(paths, ip)
				}
			}
		}
	}
	exports := map[string]string{}
	list := func(paths ...string) error {
		cmd := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...)
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("archtest: go list -export: %w", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if ip, file, ok := strings.Cut(line, "\t"); ok && file != "" {
				exports[ip] = file
			}
		}
		return nil
	}
	if err := list(paths...); err != nil {
		return nil, err
	}
	return importer.ForCompiler(m.fset, "gc", func(ip string) (io.ReadCloser, error) {
		if _, ok := exports[ip]; !ok {
			if err := list(ip); err != nil {
				return nil, err
			}
		}
		file, ok := exports[ip]
		if !ok {
			return nil, fmt.Errorf("archtest: no export data for %s", ip)
		}
		return os.Open(file)
	}), nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("archtest: no go.mod above the working directory")
		}
		dir = parent
	}
}

// add parses one file, named by its slash path from the module root,
// into its directory's package, replacing a file of the same name.
func (m *module) add(name string, src []byte) error {
	test := strings.HasSuffix(name, "_test.go")
	mode := parser.SkipObjectResolution
	if test {
		// Test files are read by syntax alone; the parser's resolution
		// tells a local name from a package-level one.
		mode = 0
	}
	f, err := parser.ParseFile(m.fset, name, src, mode)
	if err != nil {
		return err
	}
	dir := path.Dir(name)
	ip := modulePath
	if dir != "." {
		ip += "/" + dir
	}
	p := m.pkgs[ip]
	if p == nil {
		p = &pkg{path: ip, dir: dir}
		m.pkgs[ip] = p
	}
	list := &p.files
	if test {
		list = &p.tests
	}
	*list = slices.DeleteFunc(slices.Clone(*list), func(g *ast.File) bool { return m.name(g) == name })
	*list = append(*list, f)
	return nil
}

// sort orders the packages so that each follows the module packages its
// non-test files import.
func (m *module) sort() error {
	m.order = m.order[:0]
	state := map[*pkg]int{} // 1 visiting, 2 done
	var visit func(p *pkg) error
	visit = func(p *pkg) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("archtest: import cycle through %s", p.path)
		case 2:
			return nil
		}
		state[p] = 1
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if q := m.pkgs[importPath(imp)]; q != nil {
					if err := visit(q); err != nil {
						return err
					}
				}
			}
		}
		state[p] = 2
		m.order = append(m.order, p)
		return nil
	}
	paths := make([]string, 0, len(m.pkgs))
	for ip := range m.pkgs {
		paths = append(paths, ip)
	}
	slices.Sort(paths)
	for _, ip := range paths {
		if err := visit(m.pkgs[ip]); err != nil {
			return err
		}
	}
	return nil
}

// check type-checks p's non-test files. The first type error fails the
// check unless tolerant, when the check goes on past every error, as for
// a mutation row that restores code the tree no longer compiles with.
func (m *module) check(p *pkg, tolerant bool) error {
	p.types, p.info = nil, &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	if len(p.files) == 0 {
		return nil // a test-only package
	}
	conf := types.Config{Importer: m, GoVersion: "go1.22"}
	if tolerant {
		conf.Error = func(error) {}
	}
	tp, err := conf.Check(p.path, m.fset, p.files, p.info)
	p.types = tp
	if tolerant {
		return nil
	}
	return err
}

// Import resolves a module package to its checked types and anything
// else through the standard library's export data.
func (m *module) Import(ip string) (*types.Package, error) {
	if p := m.pkgs[ip]; p != nil {
		if p.types == nil {
			return nil, fmt.Errorf("archtest: %s imported before it was checked", ip)
		}
		return p.types, nil
	}
	return m.std.Import(ip)
}

// with returns a copy of m with the given files, named by slash path from
// the module root, added or replaced, and their packages checked again.
// Type errors in the new files are expected (they restore code the tree
// has since deleted) and are ignored; a syntax error fails t.
func (m *module) with(t *testing.T, files map[string]string) *module {
	t.Helper()
	c := &module{fset: m.fset, pkgs: map[string]*pkg{}, std: m.std}
	for ip, p := range m.pkgs {
		c.pkgs[ip] = p
	}
	touched := map[string]bool{}
	for name, src := range files {
		dir := path.Dir(name)
		ip := modulePath
		if dir != "." {
			ip += "/" + dir
		}
		if p := c.pkgs[ip]; p != nil && !touched[ip] {
			q := *p
			c.pkgs[ip] = &q
		}
		touched[ip] = true
		if err := c.add(name, []byte(src)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.sort(); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.order {
		if touched[p.path] {
			_ = c.check(p, true) // tolerant: it reports no error
		}
	}
	return c
}

// name is the slash path of f from the module root.
func (m *module) name(f *ast.File) string { return m.fset.Position(f.Package).Filename }

// at formats a position as path:line.
func (m *module) at(pos token.Pos) string {
	p := m.fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// importPath is the unquoted path of an import spec.
func importPath(imp *ast.ImportSpec) string {
	p, _ := strconv.Unquote(imp.Path.Value)
	return p
}

// within reports whether the slash path name is dir or lies under it.
func within(name, dir string) bool {
	return name == dir || strings.HasPrefix(name, dir+"/")
}

// testObj resolves e, in test file f of package p, to the package-level
// object it names: a bare name of the package under test (in-package
// tests only) or pkg.Name through one of f's imports, aliased or not. It
// returns nil for anything else: locals, fields, methods, and names the
// test file itself declares.
func (m *module) testObj(p *pkg, f *ast.File, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Obj != nil || p.types == nil || f.Name.Name != p.types.Name() {
			return nil
		}
		return p.types.Scope().Lookup(e.Name)
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		if !ok || x.Obj != nil {
			return nil
		}
		for _, imp := range f.Imports {
			q := m.pkgs[importPath(imp)]
			if q == nil || q.types == nil {
				continue
			}
			local := q.types.Name()
			if imp.Name != nil {
				local = imp.Name.Name
			}
			if local == x.Name {
				return q.types.Scope().Lookup(e.Sel.Name)
			}
		}
	}
	return nil
}
