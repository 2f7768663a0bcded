// Package driver loads, type-checks and analyzes Go packages for the
// c56-lint suite without any dependency outside the standard library.
//
// Package metadata and compiled export data come from one
// `go list -deps -export -json` invocation (with the caller's -tags, so a
// build configuration is whatever the go command says it is); each root
// package is parsed with go/parser and type-checked with go/types against
// the export data through the stdlib gc importer (importer.ForCompiler with
// a lookup function). Dependencies are never re-type-checked from source —
// exactly the scheme golang.org/x/tools/go/packages uses in LoadTypes mode,
// shrunk to what five analyzers need. Only a package's GoFiles are analyzed:
// the suite's invariants are library invariants, and tests build ill-shaped
// scaffolding (manufactured contexts, raw loops) on purpose.
//
// Diagnostics on a line carrying `//lint:allow <analyzer> <reason>` are
// suppressed; a directive with no reason is itself reported. Findings
// print as file:line:col: message (analyzer) and make the process exit
// non-zero, so CI can gate on the suite.
package driver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"code56/internal/lint/analysis"
)

// listPackage is the subset of `go list -json` output the driver consumes.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Standard   bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// finding is one printable diagnostic.
type finding struct {
	pos      token.Position
	analyzer string
	message  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.pos, f.message, f.analyzer)
}

// load runs one `go list -deps -export -json` over patterns and returns
// the root (non-dependency, non-stdlib) packages sorted by import path,
// plus a FileSet and an importer that resolves every import through the
// listed export data.
func load(tags string, patterns []string) ([]*listPackage, *token.FileSet, types.Importer, error) {
	args := []string{"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,CgoFiles,Export,DepOnly,Standard,Module,Error"}
	if tags != "" {
		args = append(args, "-tags", tags)
	}
	args = append(args, "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("go list: %w", err)
	}

	exports := map[string]string{}
	var roots []*listPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, nil, nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		pp := p
		if pp.Export != "" {
			exports[pp.ImportPath] = pp.Export
		}
		if !pp.DepOnly && !pp.Standard {
			roots = append(roots, &pp)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return roots, fset, imp, nil
}

// sourceFiles returns the package's build-selected sources as absolute
// paths, and the go directive version the type-checker should honor.
func sourceFiles(p *listPackage) (filenames []string, goVersion string) {
	if p.Module != nil && p.Module.GoVersion != "" {
		goVersion = "go" + p.Module.GoVersion
	}
	for _, gf := range p.GoFiles {
		filenames = append(filenames, filepath.Join(p.Dir, gf))
	}
	return filenames, goVersion
}

// Run executes the analyzers over the packages matched by patterns (with
// optional build tags) and prints findings to w. It returns the number of
// findings; a non-nil error means the load itself failed.
func Run(w io.Writer, analyzers []*analysis.Analyzer, tags string, patterns []string) (int, error) {
	if err := analysis.Validate(analyzers); err != nil {
		return 0, err
	}
	roots, fset, imp, err := load(tags, patterns)
	if err != nil {
		return 0, err
	}
	var findings []finding
	for _, p := range roots {
		if len(p.CgoFiles) > 0 {
			fmt.Fprintf(w, "c56-lint: skipping %s: cgo packages are not supported\n", p.ImportPath)
			continue
		}
		filenames, goVersion := sourceFiles(p)
		fs, err := analyzePackage(analyzers, fset, imp, p.ImportPath, goVersion, filenames)
		if err != nil {
			return 0, err
		}
		findings = append(findings, fs...)
	}
	// One globally deterministic report: sorted by file, line and column
	// across all packages (not just within each), with exact repeats
	// printed once. The same site can surface twice when overlapping
	// patterns visit a package through two roots, or when a cross-package
	// analyzer (metricname's duplicate registry) reports one collision
	// from both of its ends.
	sortFindings(findings)
	findings = dedupFindings(findings)
	for _, f := range findings {
		fmt.Fprintln(w, f)
	}
	return len(findings), nil
}

// sortFindings orders findings by file, line, column, then analyzer and
// message so equal positions still print deterministically.
func sortFindings(fs []finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		if a.analyzer != b.analyzer {
			return a.analyzer < b.analyzer
		}
		return a.message < b.message
	})
}

// dedupFindings drops adjacent identical findings (same position,
// analyzer and message). Call after sortFindings.
func dedupFindings(fs []finding) []finding {
	out := fs[:0]
	for _, f := range fs {
		if len(out) > 0 && f == out[len(out)-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// checkPackage parses and type-checks one package's sources.
func checkPackage(fset *token.FileSet, imp types.Importer, importPath, goVersion string,
	filenames []string) ([]*ast.File, *types.Package, *types.Info, error) {

	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("parsing %s: %w", fn, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp, GoVersion: goVersion}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return files, pkg, info, nil
}

// analyzePackage parses and type-checks one package, runs every analyzer,
// and returns the surviving (non-suppressed) findings.
func analyzePackage(analyzers []*analysis.Analyzer, fset *token.FileSet, imp types.Importer,
	importPath, goVersion string, filenames []string) ([]finding, error) {

	files, pkg, info, err := checkPackage(fset, imp, importPath, goVersion, filenames)
	if err != nil {
		return nil, err
	}

	allowed, badDirectives := analysis.Suppressions(fset, files)
	var findings []finding
	for _, d := range badDirectives {
		findings = append(findings, finding{pos: fset.Position(d.Pos), analyzer: "lint", message: d.Message})
	}
	for _, a := range analyzers {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, importPath, err)
		}
		for _, d := range diags {
			if analysis.Suppressed(fset, allowed, a.Name, d) {
				continue
			}
			findings = append(findings, finding{pos: fset.Position(d.Pos), analyzer: a.Name, message: d.Message})
		}
	}
	return findings, nil
}
