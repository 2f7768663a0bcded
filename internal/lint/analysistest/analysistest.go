// Package analysistest runs internal/lint analyzers over fixture packages
// and checks their diagnostics against // want comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest workflow without the x/tools
// dependency.
//
// Fixtures live in a GOPATH-style tree: <testdata>/src/<importpath>/*.go.
// Imports inside fixtures resolve against the same tree, so fixture
// packages depend on small stubs of the real packages (the stubs reuse the
// production import paths, e.g. code56/internal/bufpool, so the analyzers'
// path matching is exercised exactly as in the real module). Fixture
// loading is hermetic, with no go command and no network.
//
// Expectations are // want comments on the offending line:
//
//	buf := bufpool.Get(n) // want `rented at line \d+`
//
// Each quoted string is a regexp that must match exactly one diagnostic
// reported on that line; unmatched diagnostics and unsatisfied
// expectations both fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"code56/internal/lint/analysis"
)

// TestData returns the absolute path of the test's testdata directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads each fixture package below dir/src, applies the analyzer, and
// checks the diagnostics against the fixtures' // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	if err := analysis.Validate([]*analysis.Analyzer{a}); err != nil {
		t.Fatal(err)
	}
	ld := &loader{
		root: filepath.Join(dir, "src"),
		fset: token.NewFileSet(),
		pkgs: map[string]*loadedPkg{},
	}
	for _, path := range pkgPaths {
		p, err := ld.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      ld.fset,
			Files:     p.files,
			Pkg:       p.pkg,
			TypesInfo: p.info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, path, err)
		}
		// Apply the same //lint:allow filtering the driver applies, so
		// fixtures can cover the suppression mechanism too.
		allowed, bad := analysis.Suppressions(ld.fset, p.files)
		diags = append(diags, bad...)
		kept := diags[:0]
		for _, d := range diags {
			if !analysis.Suppressed(ld.fset, allowed, a.Name, d) {
				kept = append(kept, d)
			}
		}
		check(t, ld.fset, a, path, p.files, kept)
	}
}

// loadedPkg is one type-checked fixture package.
type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader resolves fixture import paths below root, loading each package at
// most once. Stdlib fallback uses the source importer only if a path is
// not stubbed in the tree.
type loader struct {
	root    string
	fset    *token.FileSet
	pkgs    map[string]*loadedPkg
	stdlib  types.Importer
	loading []string // cycle detection
}

// Import implements types.Importer so the type-checker resolves fixture
// imports through the loader itself.
func (ld *loader) Import(path string) (*types.Package, error) {
	if p, err := ld.load(path); err == nil {
		return p.pkg, nil
	} else if _, statErr := os.Stat(filepath.Join(ld.root, filepath.FromSlash(path))); statErr == nil {
		return nil, err // the stub exists but is broken: surface that error
	}
	// Not stubbed: fall back to compiling the real standard library
	// package from GOROOT source.
	if ld.stdlib == nil {
		ld.stdlib = importer.ForCompiler(ld.fset, "source", nil)
	}
	return ld.stdlib.Import(path)
}

func (ld *loader) load(path string) (*loadedPkg, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	for _, active := range ld.loading {
		if active == path {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
	}
	ld.loading = append(ld.loading, path)
	defer func() { ld.loading = ld.loading[:len(ld.loading)-1] }()

	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{pkg: pkg, files: files, info: info}
	ld.pkgs[path] = p
	return p, nil
}

// expectation is one // want regexp at one file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

var wantRE = regexp.MustCompile("(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

// check matches diagnostics against // want comments.
func check(t *testing.T, fset *token.FileSet, a *analysis.Analyzer, pkgPath string, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text[idx+len("// want "):], -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					} else {
						raw = strings.ReplaceAll(raw, `\"`, `"`)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.met && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected %s diagnostic at %s:%d: %s", pkgPath, a.Name, pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s: no %s diagnostic at %s:%d matching %q", pkgPath, a.Name, w.file, w.line, w.raw)
		}
	}
}
