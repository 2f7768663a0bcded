// Package lint holds the c56-lint analyzer suite: five checks that turn
// this repository's load-bearing conventions — invariants that previously
// lived only in reviewers' heads — into mechanically enforced rules.
//
//   - xorloop: block XOR must go through internal/xorblk's kernels. The
//     paper's optimal XOR counts are tallied there, and the zero-alloc wide
//     kernels only help if nothing bypasses them.
//   - ctxflow: library code must not invent contexts — no context.TODO,
//     and context.Background only in the serial-wrapper shape.
//   - metricname: telemetry names are compile-time constants in
//     pkg.snake_case with no cross-package duplicates, so dashboards and
//     the README metric reference cannot drift from the code.
//   - lockcheck: every access to a field marked `//c56:guardedby <mu>`
//     happens with the named sibling mutex held (exclusively for writes),
//     or inside a function marked `//c56:requires <mu>` whose call sites
//     are checked instead — the checklocks discipline, path-sensitively.
//   - noalloc: functions marked `//c56:noalloc` are statically proven free
//     of allocating constructs on their success paths, backing the
//     AllocsPerRun regression tests with whole-body coverage.
//
// The analyzers are built on internal/lint/analysis (a stdlib-only
// re-implementation of the x/tools go/analysis shape) and are exercised by
// analysistest fixtures under testdata/src. cmd/c56-lint runs the suite
// over the module. That unsafe and assembly stay inside internal/xorblk
// behind the purego/noasm tags is not an analyzer: TestPortableBuilds asks
// `go list` what each build configuration compiles.
package lint

import (
	"go/ast"
	"go/types"

	"code56/internal/lint/analysis"
)

// Suite returns the five c56-lint analyzers in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		XorLoop,
		CtxFlow,
		MetricName,
		Lockcheck,
		NoAlloc,
	}
}

// Paths of the packages whose APIs the analyzers key on. The analyzers
// match by full import path so that the analysistest fixtures (which stub
// these packages under testdata/src with the same paths) exercise exactly
// the production matching logic.
const (
	xorblkPath    = "code56/internal/xorblk"
	telemetryPath = "code56/internal/telemetry"
)

// calleeObj resolves the object a call expression invokes: the *types.Func
// for direct calls and method calls, the *types.Var for calls through
// function-valued variables, nil for type conversions and builtins.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether call invokes the package-level function
// path.name (not a method).
func isPkgFunc(info *types.Info, call *ast.CallExpr, path, name string) bool {
	obj, ok := calleeObj(info, call).(*types.Func)
	if !ok || obj.Name() != name || obj.Pkg() == nil || obj.Pkg().Path() != path {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// methodOn reports whether call invokes a method named name whose receiver
// is declared in package path on a (possibly pointered) named type called
// recv. recv == "" matches any receiver type in that package.
func methodOn(info *types.Info, call *ast.CallExpr, path, recv, name string) bool {
	obj, ok := calleeObj(info, call).(*types.Func)
	if !ok || obj.Name() != name || obj.Pkg() == nil || obj.Pkg().Path() != path {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if recv == "" {
		return true
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == recv
}

// isByteSliceIndex reports whether e indexes a slice or array whose element
// type is byte (the operand shape of a hand-rolled block-XOR loop).
func isByteSliceIndex(info *types.Info, e ast.Expr) bool {
	idx, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[idx.X]
	if !ok {
		return false
	}
	var elem types.Type
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice:
		elem = t.Elem()
	case *types.Array:
		elem = t.Elem()
	case *types.Pointer:
		if arr, ok := t.Elem().Underlying().(*types.Array); ok {
			elem = arr.Elem()
		}
	}
	if elem == nil {
		return false
	}
	basic, ok := elem.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Uint8
}

// identObj resolves an identifier expression to its object, unwrapping
// parentheses; nil for non-identifiers.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
