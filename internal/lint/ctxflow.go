package lint

import (
	"go/ast"
	"go/types"

	"code56/internal/lint/analysis"
)

// CtxFlow forbids manufactured contexts in library code.
//
// Cancellation in this repository stops at stripe boundaries because every
// bulk loop runs under the caller's ctx. A library function that makes its
// own root silently severs cancellation for everything beneath it: a paused
// or cancelled migration would keep encoding stripes. So library code
// (anything but package main) must not call context.TODO, and may call
// context.Background only in the recognized serial-compat-wrapper shape: a
// function with no context.Context parameter passing Background() directly
// as a call argument (e.g. `return a.RebuildContext(context.Background(),
// …)`). Calling Background inside a function that already has a ctx in scope
// is reported, as is storing a manufactured context in a variable or field.
//
// That an entry point which does take a ctx hands it on to the parallel
// engine is not checked here: the cancel-before-run tests of raid6's
// RebuildContext, ScrubContextMode and EncodeStripesContext observe it (a
// cancelled context in, ctx.Err() out; for the first two, no disk touched).
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "forbid manufactured contexts in library code",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil // binaries own their root context
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCtxFunc(pass, fd.Type, fd.Body, false)
			}
		}
	}
	return nil
}

// checkCtxFunc judges every Background/TODO call of one function body, then
// recurses into nested literals. hasCtx says a context.Context parameter is in
// scope: the function's own or one of an enclosing function.
func checkCtxFunc(pass *analysis.Pass, ft *ast.FuncType, body *ast.BlockStmt, hasCtx bool) {
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil && isContextType(obj.Type()) {
					hasCtx = true
				}
			}
		}
	}
	sanctioned := map[*ast.CallExpr]bool{} // Background/TODO passed directly as a call argument
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			checkCtxFunc(pass, node.Type, node.Body, hasCtx)
			return false
		case *ast.CallExpr:
			for _, arg := range node.Args {
				if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok && isManufactured(pass, inner) {
					sanctioned[inner] = true
				}
			}
			switch {
			case !isManufactured(pass, node):
			case isPkgFunc(pass.TypesInfo, node, "context", "TODO"):
				pass.Reportf(node.Pos(), "library code must not call context.TODO; accept a ctx parameter or use the serial-wrapper shape with context.Background")
			case hasCtx:
				pass.Reportf(node.Pos(), "context.Background() inside a function that already has a ctx in scope; thread the ctx instead of manufacturing a new root")
			case !sanctioned[node]:
				pass.Reportf(node.Pos(), "context.Background() stored instead of passed; library code may only use Background directly as an argument to a context-aware call (serial-wrapper shape)")
			}
		}
		return true
	})
}

// isManufactured reports whether call is context.Background() or
// context.TODO().
func isManufactured(pass *analysis.Pass, call *ast.CallExpr) bool {
	return isPkgFunc(pass.TypesInfo, call, "context", "Background") ||
		isPkgFunc(pass.TypesInfo, call, "context", "TODO")
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
