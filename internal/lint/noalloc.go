package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"code56/internal/lint/analysis"
)

// NoAlloc statically proves `//c56:noalloc` functions free of allocating
// constructs, so the zero-alloc contract behind the XOR hot paths (and the
// AllocsPerRun regression tests that spot-check it at runtime) is enforced
// on every path, not just the ones tests execute.
//
// A function annotated `//c56:noalloc` in its doc comment must not reach,
// intraprocedurally, any of: make/new, append (may grow), map writes,
// slice/map composite literals, &T{} literals, string concatenation,
// string<->[]byte conversions, interface boxing (arguments to interface
// parameters including fmt-style variadics, interface assignments, returns
// and conversions), variable-capturing closures that escape, or go
// statements. Calls must resolve to one of:
//
//   - a same-package function that is itself annotated //c56:noalloc (the
//     proof composes: every annotated body is checked independently);
//   - a same-package function with no body (an assembly kernel — leaf code
//     that cannot invoke the Go allocator; see internal/xorblk's stubs);
//   - an entry in the noallocTrusted table below: stdlib leaves and the
//     repository's own cross-package hot-path APIs. Export data carries no
//     comments, so cross-package annotations are invisible; the table is
//     the explicit, reviewable substitute, and entries naming the package
//     under analysis are cross-checked against its real annotations so the
//     table cannot rot.
//
// Two failure-path exemptions keep the contract about the steady state the
// AllocsPerRun tests measure: arguments to panic may allocate (the process
// is dying), and any nested block that concludes by returning a non-nil
// error expression (or panicking) is a failure path — `if err != nil {
// return fmt.Errorf(...) }` never executes on the success path. The
// function's top-level statement list gets no such exemption.
//
// Designed cold-path allocations (a pool miss minting a fresh buffer) are
// suppressed with `//lint:allow noalloc <reason>`, which keeps them
// visible to `c56-lint -audit-allows`.
var NoAlloc = &analysis.Analyzer{
	Name: "noalloc",
	Doc: "prove //c56:noalloc functions reach no allocating construct " +
		"(make/new/append, map writes, interface boxing, closure capture, " +
		"string concat) through their bodies and annotated callees",
	Run: runNoAlloc,
}

// noallocDirective marks a function (or assembly stub) as statically
// allocation-free on its success paths.
const noallocDirective = "//c56:noalloc"

// noallocTrusted lists call targets outside the package under analysis
// that are known not to allocate on their success paths. Keys are
// "pkgpath.Func" for package functions and "pkgpath.Type.Method" for
// methods (pointer receivers normalized, interface methods included —
// an interface entry asserts every implementation wired into a hot path
// honors the contract, e.g. vdisk.BlockStore over MemStore and the
// filestore). Entries under a code56 path are verified against the real
// annotations whenever that package is analyzed.
var noallocTrusted = map[string]bool{
	// sync: lock/unlock park without user-visible allocation; Pool.Get and
	// Put recycle (the miss path runs New, which the caller suppresses).
	"sync.Mutex.Lock":      true,
	"sync.Mutex.Unlock":    true,
	"sync.RWMutex.Lock":    true,
	"sync.RWMutex.Unlock":  true,
	"sync.RWMutex.RLock":   true,
	"sync.RWMutex.RUnlock": true,
	"sync.Pool.Get":        true,
	"sync.Pool.Put":        true,
	"sync.Cond.Wait":       true,

	// bytes: the runtime's memequal, a leaf.
	"bytes.Equal": true,

	// encoding/binary: the fixed-endian word accessors are inlined
	// load/stores.
	"encoding/binary.littleEndian.Uint16":    true,
	"encoding/binary.littleEndian.Uint32":    true,
	"encoding/binary.littleEndian.Uint64":    true,
	"encoding/binary.littleEndian.PutUint16": true,
	"encoding/binary.littleEndian.PutUint32": true,
	"encoding/binary.littleEndian.PutUint64": true,
	"encoding/binary.bigEndian.Uint64":       true,
	"encoding/binary.bigEndian.PutUint64":    true,

	// time: reading and differencing clocks.
	"time.Now":                  true,
	"time.Since":                true,
	"time.Until":                true,
	"time.Sleep":                true,
	"time.Time.Sub":             true,
	"time.Time.Unix":            true,
	"time.Time.UnixNano":        true,
	"time.Duration.Seconds":     true,
	"time.Duration.Nanoseconds": true,

	// errors: inspection only (errors.New allocates and is not here).
	"errors.Is": true,
	"errors.As": true,

	// sort: binary search over a caller-owned slice.
	"sort.SearchFloat64s": true,
	"sort.SearchInts":     true,

	// math/rand: generator state is mutated in place.
	"math/rand.Rand.Float64": true,
	"math/rand.Rand.Intn":    true,
	"math/rand.Rand.Int63":   true,

	// code56 hot-path APIs, cross-checked against their annotations.
	"code56/internal/xorblk.Xor":             true,
	"code56/internal/xorblk.XorInto":         true,
	"code56/internal/xorblk.XorMulti":        true,
	"code56/internal/xorblk.AccumulateMulti": true,
	"code56/internal/xorblk.IsZero":          true,
	"code56/internal/xorblk.Equal":           true,

	"code56/internal/bufpool.Get":        true,
	"code56/internal/bufpool.GetZero":    true,
	"code56/internal/bufpool.Put":        true,
	"code56/internal/parallel.Pass.Mark": true,
	"code56/internal/parallel.Pass.Done": true,

	"code56/internal/telemetry.Counter.Inc":        true,
	"code56/internal/telemetry.Counter.Add":        true,
	"code56/internal/telemetry.Counter.Value":      true,
	"code56/internal/telemetry.Gauge.Set":          true,
	"code56/internal/telemetry.Gauge.Add":          true,
	"code56/internal/telemetry.Gauge.Value":        true,
	"code56/internal/telemetry.Histogram.Observe":  true,
	"code56/internal/telemetry.Histogram.ObserveN": true,
	"code56/internal/telemetry.Rate.Add":           true,
	"code56/internal/telemetry.Rate.AddSec":        true,
	"code56/internal/telemetry.Rate.Inc":           true,

	"code56/internal/layout.Geometry.Index":     true,
	"code56/internal/layout.Geometry.CoordOf":   true,
	"code56/internal/layout.Geometry.Contains":  true,
	"code56/internal/layout.Stripe.Block":       true,
	"code56/internal/layout.Stripe.Column":      true,
	"code56/internal/layout.Stripe.SetBlock":    true,
	"code56/internal/layout.Stripe.Zero":        true,
	"code56/internal/layout.StripePool.Get":     true,
	"code56/internal/layout.StripePool.Put":     true,
	"code56/internal/layout.Encoder.Encode":     true,
	"code56/internal/layout.Encoder.Verify":     true,
	"code56/internal/layout.Columns.Len":        true,
	"code56/internal/layout.Columns.At":         true,
	"code56/internal/layout.Columns.Has":        true,
	"code56/internal/layout.Columns.With":       true,
	"code56/internal/layout.Decoder.ColumnPlan": true,
	"code56/internal/layout.Plan.SourceRuns":    true,
	"code56/internal/layout.Plan.Folds":         true,
	"code56/internal/layout.Plan.Finish":        true,
	"code56/internal/layout.Plan.Run":           true,
	"code56/internal/core.Code56.P":             true,
	"code56/internal/raid5.Array.Disks":         true,
	"code56/internal/vdisk.Disk.Read":           true,
	"code56/internal/vdisk.Disk.Write":          true,
	"code56/internal/vdisk.Disk.ReadBlocks":     true,
	"code56/internal/vdisk.Disk.ReadFold":       true,
	"code56/internal/vdisk.Disk.WriteBlocks":    true,
	"code56/internal/vdisk.Disk.Swap":           true,
	"code56/internal/vdisk.Disk.Xor":            true,
	"code56/internal/vdisk.Disk.Failed":         true,
	"code56/internal/vdisk.IsDegradable":        true,
	"code56/internal/vdisk.Array.Disk":          true,
	"code56/internal/vdisk.Array.BlockSize":     true,
	"code56/internal/vdisk.Array.StripeLock":    true,
	"code56/internal/vdisk.BlockStore.ReadAt":   true,
	"code56/internal/vdisk.BlockStore.WriteAt":  true,
	"code56/internal/vdisk.Xorer.XorAt":         true,
	"code56/internal/vdisk.Xorer.ReadFoldAt":    true,
	"code56/internal/vdisk.MemStore.XorAt":      true,

	"code56/internal/raid6.Array.RebuildColumnsHeld": true,
}

// noallocTrustedPkgs are packages trusted wholesale: pure-computation
// leaves with no allocating API at all.
var noallocTrustedPkgs = map[string]bool{
	"sync/atomic": true,
	"math/bits":   true,
	"math":        true,
	"unsafe":      true,
}

func runNoAlloc(pass *analysis.Pass) error {
	c := &noallocChecker{pass: pass, annotated: map[*types.Func]*ast.FuncDecl{}, bodyless: map[*types.Func]bool{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			args, dc, found := directiveArgs(fn.Doc, noallocDirective)
			obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			if fn.Body == nil {
				c.bodyless[obj] = true
			}
			if !found {
				continue
			}
			if len(args) != 0 {
				pass.Reportf(dc.Pos(), "malformed annotation: %s takes no arguments", noallocDirective)
				continue
			}
			c.annotated[obj] = fn
		}
	}
	c.checkTrustedTable()
	for obj, fn := range c.annotated {
		if fn.Body == nil {
			continue // assembly stub: the annotation is documentation
		}
		c.checkFunc(obj.Name(), fn.Type, fn.Body)
	}
	return nil
}

type noallocChecker struct {
	pass      *analysis.Pass
	annotated map[*types.Func]*ast.FuncDecl
	bodyless  map[*types.Func]bool
}

// checkTrustedTable verifies that every noallocTrusted entry naming the
// package under analysis corresponds to a real //c56:noalloc annotation,
// so the cross-package table cannot drift from the code.
func (c *noallocChecker) checkTrustedTable() {
	prefix := c.pass.Pkg.Path() + "."
	names := map[string]bool{}
	for obj := range c.annotated {
		names[funcKeyName(obj)] = true
	}
	// Interface-method entries (e.g. BlockStore.ReadAt) assert a contract
	// over implementations, not an annotation on the interface itself.
	ifaces := map[string]bool{}
	for _, name := range c.pass.Pkg.Scope().Names() {
		if tn, ok := c.pass.Pkg.Scope().Lookup(name).(*types.TypeName); ok {
			if types.IsInterface(tn.Type()) {
				ifaces[name] = true
			}
		}
	}
	for key := range noallocTrusted {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		name := strings.TrimPrefix(key, prefix)
		if i := strings.IndexByte(name, '.'); i >= 0 && ifaces[name[:i]] {
			continue
		}
		if !names[name] {
			pos := c.pass.Files[0].Package
			c.pass.Reportf(pos, "noalloc trusted table lists %s, but no function %s in this package carries %s",
				key, name, noallocDirective)
		}
	}
}

// funcKeyName renders obj the way noallocTrusted keys name it, without the
// package path: "Func" or "Type.Method".
func funcKeyName(obj *types.Func) string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return obj.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// checkFunc walks one annotated function (or one of its local closures).
func (c *noallocChecker) checkFunc(name string, ftype *ast.FuncType, body *ast.BlockStmt) {
	w := &noallocWalker{c: c, name: name, ftype: ftype, body: body}
	w.localFuncs = w.collectLocalFuncs()
	w.iife = collectIIFEs(body)
	w.checkStmts(body.List, true)
}

// collectIIFEs indexes every immediately-invoked function literal under
// body: `func(){...}()` runs inline, so no closure value escapes.
func collectIIFEs(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	out := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				out[lit] = true
			}
		}
		return true
	})
	return out
}

// noallocWalker walks one function body.
type noallocWalker struct {
	c     *noallocChecker
	name  string
	ftype *ast.FuncType
	body  *ast.BlockStmt

	// localFuncs are closures bound to a local name that is only ever
	// called: they cannot escape, so the closure value lives on the stack
	// and its body is checked like a nested annotated function.
	localFuncs map[types.Object]*ast.FuncLit

	// iife marks immediately-invoked function literals.
	iife map[*ast.FuncLit]bool
}

func (w *noallocWalker) reportf(pos token.Pos, format string, args ...any) {
	w.c.pass.Reportf(pos, format+" in %s function %s",
		append(args, noallocDirective, w.name)...)
}

// collectLocalFuncs finds `name := func(...) {...}` bindings whose name is
// used exclusively in call position within this body.
func (w *noallocWalker) collectLocalFuncs() map[types.Object]*ast.FuncLit {
	candidates := map[types.Object]*ast.FuncLit{}
	ast.Inspect(w.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
			if !ok {
				continue
			}
			if obj := identObj(w.c.pass.TypesInfo, as.Lhs[i]); obj != nil {
				candidates[obj] = lit
			}
		}
		return true
	})
	if len(candidates) == 0 {
		return candidates
	}
	// Discard any candidate used outside call position.
	called := map[types.Object]int{}
	uses := map[types.Object]int{}
	ast.Inspect(w.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := identObj(w.c.pass.TypesInfo, call.Fun); obj != nil {
				if _, isCand := candidates[obj]; isCand {
					called[obj]++
				}
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.c.pass.TypesInfo.Uses[id]; obj != nil {
				if _, isCand := candidates[obj]; isCand {
					uses[obj]++
				}
			}
		}
		return true
	})
	for obj := range candidates {
		if uses[obj] != called[obj] {
			delete(candidates, obj)
		}
	}
	return candidates
}

// coldBlock reports whether stmts is a failure path: it concludes by
// returning an evidently non-nil error (any expression other than the
// literal nil in the trailing error result) or by panicking.
func (w *noallocWalker) coldBlock(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		results := w.ftype.Results
		if results == nil || len(results.List) == 0 {
			return false
		}
		// Locate the trailing result type; it must be error.
		var lastType ast.Expr
		n := 0
		for _, f := range results.List {
			k := len(f.Names)
			if k == 0 {
				k = 1
			}
			n += k
			lastType = f.Type
		}
		tv, ok := w.c.pass.TypesInfo.Types[lastType]
		if !ok || !isErrorType(tv.Type) {
			return false
		}
		if len(last.Results) != n {
			return false // naked return or call spread: not evidently failing
		}
		final := ast.Unparen(last.Results[len(last.Results)-1])
		if tv, ok := w.c.pass.TypesInfo.Types[final]; ok && tv.IsNil() {
			return false
		}
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := w.c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// checkStmts walks one statement list. Nested (non-top-level) lists that
// form a failure path are exempt.
func (w *noallocWalker) checkStmts(stmts []ast.Stmt, topLevel bool) {
	if !topLevel && w.coldBlock(stmts) {
		return
	}
	for _, s := range stmts {
		w.checkStmt(s)
	}
}

func (w *noallocWalker) checkStmt(s ast.Stmt) {
	switch stmt := s.(type) {
	case *ast.BlockStmt:
		w.checkStmts(stmt.List, false)
	case *ast.LabeledStmt:
		w.checkStmt(stmt.Stmt)
	case *ast.IfStmt:
		if stmt.Init != nil {
			w.checkStmt(stmt.Init)
		}
		w.checkExprs(stmt.Cond)
		w.checkStmts(stmt.Body.List, false)
		if stmt.Else != nil {
			w.checkStmt(stmt.Else)
		}
	case *ast.ForStmt:
		if stmt.Init != nil {
			w.checkStmt(stmt.Init)
		}
		w.checkExprs(stmt.Cond)
		if stmt.Post != nil {
			w.checkStmt(stmt.Post)
		}
		w.checkStmts(stmt.Body.List, false)
	case *ast.RangeStmt:
		w.checkExprs(stmt.X)
		// Ranging over a map or channel is fine; the loop variables are
		// reused. Writes through Key/Value land in checkAssign if present.
		w.checkStmts(stmt.Body.List, false)
	case *ast.SwitchStmt:
		if stmt.Init != nil {
			w.checkStmt(stmt.Init)
		}
		w.checkExprs(stmt.Tag)
		w.checkCaseBodies(stmt.Body)
	case *ast.TypeSwitchStmt:
		if stmt.Init != nil {
			w.checkStmt(stmt.Init)
		}
		w.checkCaseBodies(stmt.Body)
	case *ast.SelectStmt:
		w.checkCaseBodies(stmt.Body)
	case *ast.AssignStmt:
		w.checkAssign(stmt)
	case *ast.GoStmt:
		w.reportf(stmt.Pos(), "go statement starts a goroutine (allocates)")
	case *ast.DeferStmt:
		w.checkExprs(stmt.Call)
	case *ast.ReturnStmt:
		w.checkReturn(stmt)
	case *ast.DeclStmt:
		w.checkDecl(stmt)
	case *ast.IncDecStmt:
		w.checkExprs(stmt.X)
	case *ast.ExprStmt:
		w.checkExprs(stmt.X)
	case *ast.SendStmt:
		w.checkExprs(stmt.Chan)
		w.checkExprs(stmt.Value)
	}
}

func (w *noallocWalker) checkCaseBodies(body *ast.BlockStmt) {
	for _, cl := range body.List {
		switch cc := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.checkExprs(e)
			}
			w.checkStmts(cc.Body, false)
		case *ast.CommClause:
			if cc.Comm != nil {
				w.checkStmt(cc.Comm)
			}
			w.checkStmts(cc.Body, false)
		}
	}
}

// checkAssign handles allocation shapes only visible at the assignment:
// map writes, string concatenation compound assignment, and interface
// boxing of the stored value.
func (w *noallocWalker) checkAssign(stmt *ast.AssignStmt) {
	for _, lhs := range stmt.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if tv, ok := w.c.pass.TypesInfo.Types[idx.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					w.reportf(lhs.Pos(), "map assignment may allocate")
				}
			}
		}
		w.checkExprs(lhs)
	}
	if stmt.Tok == token.ADD_ASSIGN && len(stmt.Lhs) == 1 {
		if tv, ok := w.c.pass.TypesInfo.Types[stmt.Lhs[0]]; ok && isStringType(tv.Type) {
			w.reportf(stmt.Pos(), "string concatenation allocates")
		}
	}
	for i, rhs := range stmt.Rhs {
		w.checkExprs(rhs)
		// Boxing on plain assignment into an interface-typed slot. := infers
		// the concrete type, so only = can box.
		if stmt.Tok == token.ASSIGN && len(stmt.Lhs) == len(stmt.Rhs) {
			if tv, ok := w.c.pass.TypesInfo.Types[stmt.Lhs[i]]; ok {
				w.checkBoxing(tv.Type, rhs, "assignment")
			}
		}
	}
}

func (w *noallocWalker) checkReturn(stmt *ast.ReturnStmt) {
	for _, res := range stmt.Results {
		w.checkExprs(res)
	}
	// Boxing into interface-typed results.
	results := w.ftype.Results
	if results == nil {
		return
	}
	var resultTypes []types.Type
	for _, f := range results.List {
		tv, ok := w.c.pass.TypesInfo.Types[f.Type]
		if !ok {
			return
		}
		k := len(f.Names)
		if k == 0 {
			k = 1
		}
		for range k {
			resultTypes = append(resultTypes, tv.Type)
		}
	}
	if len(stmt.Results) != len(resultTypes) {
		return
	}
	for i, res := range stmt.Results {
		w.checkBoxing(resultTypes[i], res, "return")
	}
}

func (w *noallocWalker) checkDecl(stmt *ast.DeclStmt) {
	gd, ok := stmt.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, v := range vs.Values {
			w.checkExprs(v)
			if vs.Type != nil && i < len(vs.Names) {
				if obj := w.c.pass.TypesInfo.Defs[vs.Names[i]]; obj != nil {
					w.checkBoxing(obj.Type(), v, "assignment")
				}
			}
		}
	}
}

// checkBoxing reports storing a concrete value into an interface-typed
// slot. Pointer-shaped values (pointers, channels, maps, functions,
// unsafe.Pointer) are exempt: they store directly in the interface data
// word without touching the heap — the very property bufpool's *entry
// boxes exploit to keep sync.Pool traffic allocation-free.
func (w *noallocWalker) checkBoxing(target types.Type, val ast.Expr, what string) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := w.c.pass.TypesInfo.Types[val]
	if !ok || tv.IsNil() || tv.Type == nil || types.IsInterface(tv.Type) {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Basic:
		if tv.Type.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return
		}
	}
	w.reportf(val.Pos(), "%s boxes %s into %s (allocates)", what, tv.Type, target)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// checkExprs inspects one expression tree for allocating constructs.
func (w *noallocWalker) checkExprs(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.checkFuncLit(n)
			return false
		case *ast.CallExpr:
			return w.checkCall(n)
		case *ast.CompositeLit:
			tv, ok := w.c.pass.TypesInfo.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				w.reportf(n.Pos(), "slice literal allocates")
			case *types.Map:
				w.reportf(n.Pos(), "map literal allocates")
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					w.reportf(n.Pos(), "&composite literal allocates")
					return false
				}
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := w.c.pass.TypesInfo.Types[n]; ok && isStringType(tv.Type) {
					w.reportf(n.Pos(), "string concatenation allocates")
				}
			}
			return true
		}
		return true
	})
}

// checkFuncLit handles a function literal encountered as a value. A
// literal bound to a local-only-called name or invoked immediately is
// checked like a nested function; anything else that captures variables
// is an escaping closure.
func (w *noallocWalker) checkFuncLit(lit *ast.FuncLit) {
	inner := func() {
		nested := &noallocWalker{c: w.c, name: w.name, ftype: lit.Type, body: lit.Body, iife: w.iife}
		nested.localFuncs = nested.collectLocalFuncs()
		for obj, l := range w.localFuncs {
			nested.localFuncs[obj] = l
		}
		nested.checkStmts(lit.Body.List, true)
	}
	if w.iife[lit] {
		inner()
		return
	}
	for _, l := range w.localFuncs {
		if l == lit {
			inner()
			return
		}
	}
	if w.capturesOuter(lit) {
		w.reportf(lit.Pos(), "closure captures variables (allocates)")
	}
	// A capture-free literal is a static function value; the call sites
	// that receive it are responsible for what it does.
	inner()
}

// capturesOuter reports whether lit references variables declared outside
// it (other than package-level ones).
func (w *noallocWalker) capturesOuter(lit *ast.FuncLit) bool {
	scopeOf := func(obj types.Object) bool {
		if obj == nil || obj.Parent() == nil {
			return false
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return false
		}
		if obj.Parent() == w.c.pass.Pkg.Scope() || obj.Parent() == types.Universe {
			return false
		}
		return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
	}
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if scopeOf(w.c.pass.TypesInfo.Uses[id]) {
				captured = true
			}
		}
		return !captured
	})
	return captured
}

// checkCall validates one call: builtins, conversions, and callee
// resolution. Returns whether Inspect should descend into the arguments.
func (w *noallocWalker) checkCall(call *ast.CallExpr) bool {
	// Type conversion?
	if tv, ok := w.c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) == 1 {
			if atv, ok := w.c.pass.TypesInfo.Types[call.Args[0]]; ok && atv.Type != nil {
				switch {
				case isStringType(target) && isByteOrRuneSlice(atv.Type),
					isByteOrRuneSlice(target) && isStringType(atv.Type):
					w.reportf(call.Pos(), "conversion between string and byte/rune slice allocates")
				default:
					w.checkBoxing(target, call.Args[0], "conversion")
				}
			}
		}
		return true
	}

	obj := calleeObj(w.c.pass.TypesInfo, call)
	switch obj := obj.(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "make":
			w.reportf(call.Pos(), "make allocates")
		case "new":
			w.reportf(call.Pos(), "new allocates")
		case "append":
			w.reportf(call.Pos(), "append may grow its backing array (allocates)")
		case "panic":
			return false // failure path: the argument may allocate
		}
		return true
	case *types.Func:
		w.checkCalleeFunc(call, obj)
		w.checkArgBoxing(call, obj)
		return true
	case *types.Var:
		// A call through a function value: local-only-called closures were
		// validated at their definition; anything else is dynamic dispatch
		// the checker cannot see through.
		if _, ok := w.localFuncs[obj]; ok {
			return true
		}
		w.reportf(call.Pos(), "dynamic call through %s cannot be proven alloc-free", obj.Name())
		return true
	}
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return true // handled by checkFuncLit via the surrounding Inspect
	}
	return true
}

// checkCalleeFunc validates the call target is alloc-free by one of the
// accepted proofs.
func (w *noallocWalker) checkCalleeFunc(call *ast.CallExpr, fn *types.Func) {
	if fn.Pkg() == nil {
		return // error.Error and friends from the universe scope
	}
	// The trusted table is consulted before the same-package annotation
	// check: interface methods (e.g. vdisk.BlockStore.ReadAt called from
	// inside vdisk itself) have no FuncDecl to annotate, so their contract
	// lives in the table even for same-package calls.
	if noallocTrustedPkgs[fn.Pkg().Path()] || noallocTrusted[fn.Pkg().Path()+"."+funcKeyName(fn)] {
		return
	}
	if fn.Pkg() == w.c.pass.Pkg {
		if _, ok := w.c.annotated[fn]; ok {
			return
		}
		if w.c.bodyless[fn] {
			return // assembly kernel: leaf code without allocator access
		}
		w.reportf(call.Pos(), "calls %s, which is not marked %s", fn.Name(), noallocDirective)
		return
	}
	w.reportf(call.Pos(), "calls %s.%s, which is not in the noalloc trusted set",
		fn.Pkg().Path(), funcKeyName(fn))
}

// checkArgBoxing flags concrete arguments passed to interface parameters,
// including fmt-style variadics.
func (w *noallocWalker) checkArgBoxing(call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis != token.NoPos {
				continue // passing the slice through; nothing boxes
			}
			pt = params.At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		w.checkBoxing(pt, arg, "argument")
	}
}
