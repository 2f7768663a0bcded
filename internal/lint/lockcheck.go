package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"code56/internal/lint/analysis"
)

// Lockcheck verifies `//c56:guardedby <mu>` field annotations in the
// checklocks shape: every read or write of an annotated struct field must
// happen while the named sibling mutex is held on the same instance.
//
// The annotation grammar:
//
//   - `//c56:guardedby <mu>` on a struct field declares that the field may
//     only be accessed while the sibling field <mu> (a sync.Mutex or
//     sync.RWMutex, possibly behind a pointer) is held. Writes require the
//     exclusive lock; reads accept RLock on an RWMutex.
//   - `//c56:requires <mu> [<mu2> ...]` on a method's doc comment declares
//     that callers must hold the named receiver mutexes exclusively; the
//     body is checked with them held, and every same-package call site is
//     checked to hold them (so the obligation propagates transitively
//     through annotated helpers).
//
// The checker walks each function body path-sensitively: `mu.Lock()`/`RLock()`
// acquire, `Unlock()`/`RUnlock()` release, `defer mu.Unlock()` holds the
// lock to every exit of the path, `cond.Wait()` is lock-preserving, branch
// joins intersect the held sets (a lock is held after an if/switch only
// when every live arm held it), and loop bodies are iterated to a fixed
// point so a lock released on a back edge is not assumed on the next
// iteration. Break and continue carry their held sets to the loop exit and
// back edge respectively — the repository's worker loops acquire inside a
// `for {}` and exit via break while holding.
//
// Two instance-precision rules keep the check sound without whole-program
// analysis: accesses are resolved to a (root variable, selector path) pair
// so `a.mu` never vouches for `b.field`; and locals freshly built from a
// composite literal or new() in the same body (constructors) are exempt —
// no other goroutine can hold a reference yet.
var Lockcheck = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "check that every access to a //c56:guardedby field holds the named " +
		"mutex (Lock for writes, RLock for reads), honoring //c56:requires " +
		"annotations transitively at call sites",
	Run: runLockcheck,
}

// Annotation directives recognized by lockcheck.
const (
	guardedByDirective = "//c56:guardedby"
	requiresDirective  = "//c56:requires"
)

// Lock modes. Exclusive subsumes read.
const (
	lockRead = 1 + iota
	lockExclusive
)

// lockKey names one mutex instance reachable from a function body: the
// root variable plus the dotted field path to the mutex (e.g. {m, "mu"}
// for m.mu, {s, "bucket.mu"} for s.bucket.mu).
type lockKey struct {
	root types.Object
	path string
}

// lockState is the set of mutexes held (with their modes) along one
// control-flow path.
type lockState struct {
	held       map[lockKey]int
	terminated bool
}

func newLockState() lockState {
	return lockState{held: map[lockKey]int{}}
}

func (st lockState) clone() lockState {
	out := lockState{held: make(map[lockKey]int, len(st.held)), terminated: st.terminated}
	for k, v := range st.held {
		out.held[k] = v
	}
	return out
}

// intersect joins two live paths: a lock survives the join only at the
// weakest mode both paths guarantee.
func intersect(a, b lockState) lockState {
	out := newLockState()
	for k, ma := range a.held {
		if mb, ok := b.held[k]; ok {
			if mb < ma {
				out.held[k] = mb
			} else {
				out.held[k] = ma
			}
		}
	}
	return out
}

// joinStates intersects the live states in sts; if every path terminated,
// the join is terminated too.
func joinStates(sts []lockState) lockState {
	var live []lockState
	for _, st := range sts {
		if !st.terminated {
			live = append(live, st)
		}
	}
	if len(live) == 0 {
		return lockState{held: map[lockKey]int{}, terminated: true}
	}
	out := live[0]
	for _, st := range live[1:] {
		out = intersect(out, st)
	}
	return out
}

func sameState(a, b lockState) bool {
	if a.terminated != b.terminated || len(a.held) != len(b.held) {
		return false
	}
	for k, v := range a.held {
		if b.held[k] != v {
			return false
		}
	}
	return true
}

// guardInfo describes one annotated field: the sibling guard's name and
// whether the guard is an RWMutex (whose RLock satisfies reads).
type guardInfo struct {
	guard string
	rw    bool
}

// lockcheckPkg is the per-package annotation index.
type lockcheckPkg struct {
	pass     *analysis.Pass
	guards   map[*types.Var]guardInfo // annotated field -> its guard
	requires map[*types.Func][]string // annotated method -> receiver guards
}

func runLockcheck(pass *analysis.Pass) error {
	p := &lockcheckPkg{
		pass:     pass,
		guards:   map[*types.Var]guardInfo{},
		requires: map[*types.Func][]string{},
	}
	for _, f := range pass.Files {
		p.collectGuards(f)
	}
	for _, f := range pass.Files {
		p.collectRequires(f)
	}
	if len(p.guards) == 0 && len(p.requires) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			p.checkFunc(fn)
		}
	}
	return nil
}

// directiveArgs returns the whitespace-separated arguments of the first
// comment in the group starting with the directive, and whether one was
// found.
func directiveArgs(cg *ast.CommentGroup, directive string) ([]string, *ast.Comment, bool) {
	if cg == nil {
		return nil, nil, false
	}
	for _, c := range cg.List {
		if !strings.HasPrefix(c.Text, directive) {
			continue
		}
		rest := strings.TrimPrefix(c.Text, directive)
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue // e.g. //c56:guardedbyX — a different word
		}
		// A trailing comment (fixture `// want` pins, prose) is not part of
		// the directive.
		if i := strings.Index(rest, "//"); i >= 0 {
			rest = rest[:i]
		}
		return strings.Fields(rest), c, true
	}
	return nil, nil, false
}

// mutexKind classifies t: 0 for non-mutex, 1 for sync.Mutex, 2 for
// sync.RWMutex. A pointer to either counts.
func mutexKind(t types.Type) int {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return 0
	}
	switch named.Obj().Name() {
	case "Mutex":
		return 1
	case "RWMutex":
		return 2
	}
	return 0
}

// collectGuards indexes every //c56:guardedby field annotation in f,
// validating that the named guard is a sibling mutex field.
func (p *lockcheckPkg) collectGuards(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, field := range st.Fields.List {
			args, c, found := directiveArgs(field.Doc, guardedByDirective)
			if !found {
				args, c, found = directiveArgs(field.Comment, guardedByDirective)
			}
			if !found {
				continue
			}
			if len(args) != 1 {
				p.pass.Reportf(c.Pos(), "malformed annotation: want `%s <mutex field>`", guardedByDirective)
				continue
			}
			guard := args[0]
			selfGuard := false
			for _, name := range field.Names {
				if name.Name == guard {
					p.pass.Reportf(c.Pos(), "%s %s: a mutex cannot guard itself", guardedByDirective, guard)
					selfGuard = true
				}
			}
			if selfGuard {
				continue
			}
			kind := p.siblingMutex(st, guard)
			if kind == 0 {
				p.pass.Reportf(c.Pos(), "%s %s: no sibling sync.Mutex or sync.RWMutex field named %q",
					guardedByDirective, guard, guard)
				continue
			}
			if len(field.Names) == 0 {
				p.pass.Reportf(c.Pos(), "%s cannot annotate an embedded field", guardedByDirective)
				continue
			}
			for _, name := range field.Names {
				if v, ok := p.pass.TypesInfo.Defs[name].(*types.Var); ok {
					p.guards[v] = guardInfo{guard: guard, rw: kind == 2}
				}
			}
		}
		return true
	})
}

// siblingMutex returns the mutexKind of the field named guard in st, or 0.
func (p *lockcheckPkg) siblingMutex(st *ast.StructType, guard string) int {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != guard {
				continue
			}
			if v, ok := p.pass.TypesInfo.Defs[name].(*types.Var); ok {
				return mutexKind(v.Type())
			}
		}
	}
	return 0
}

// collectRequires indexes every //c56:requires method annotation in f,
// validating that each named guard is a mutex field of the receiver.
func (p *lockcheckPkg) collectRequires(f *ast.File) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		args, c, found := directiveArgs(fn.Doc, requiresDirective)
		if !found {
			continue
		}
		if len(args) == 0 {
			p.pass.Reportf(c.Pos(), "malformed annotation: want `%s <mutex field> ...`", requiresDirective)
			continue
		}
		obj, _ := p.pass.TypesInfo.Defs[fn.Name].(*types.Func)
		if obj == nil {
			continue
		}
		recv := recvStruct(obj)
		if recv == nil {
			p.pass.Reportf(c.Pos(), "%s requires a method with a named struct receiver", requiresDirective)
			continue
		}
		valid := true
		for _, g := range args {
			if fieldMutexKind(recv, g) == 0 {
				p.pass.Reportf(c.Pos(), "%s %s: receiver has no sync.Mutex or sync.RWMutex field named %q",
					requiresDirective, g, g)
				valid = false
			}
		}
		if valid {
			p.requires[obj] = args
		}
	}
}

// recvStruct returns the struct type underlying fn's receiver, or nil.
func recvStruct(fn *types.Func) *types.Struct {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// fieldMutexKind returns the mutexKind of st's field named name, or 0.
func fieldMutexKind(st *types.Struct, name string) int {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return mutexKind(st.Field(i).Type())
		}
	}
	return 0
}

// checkFunc walks one function declaration's body.
func (p *lockcheckPkg) checkFunc(fn *ast.FuncDecl) {
	w := &lockWalker{pkg: p}
	entry := newLockState()
	// A //c56:requires method starts with the named receiver mutexes held.
	if obj, _ := p.pass.TypesInfo.Defs[fn.Name].(*types.Func); obj != nil {
		if guards, ok := p.requires[obj]; ok && fn.Recv != nil && len(fn.Recv.List) > 0 {
			names := fn.Recv.List[0].Names
			if len(names) > 0 {
				if recv := p.pass.TypesInfo.Defs[names[0]]; recv != nil {
					for _, g := range guards {
						entry.held[lockKey{recv, g}] = lockExclusive
					}
				}
			}
		}
	}
	w.walkBody(fn.Body, entry)
}

// lockWalker walks one function body (and, recursively, each function
// literal it contains with a fresh empty state).
type lockWalker struct {
	pkg   *lockcheckPkg
	fresh map[types.Object]bool // locals built from composite literals/new in this body
	loops []*loopFrame          // enclosing breakable constructs, innermost last
	mute  int                   // >0 while re-walking loop bodies for the fixed point
}

// loopFrame collects the states carried out of a loop (break) or to its
// back edge (continue). Switch/select frames accept break only.
type loopFrame struct {
	isLoop    bool
	breaks    []lockState
	continues []lockState
}

func (w *lockWalker) walkBody(body *ast.BlockStmt, entry lockState) {
	w.fresh = map[types.Object]bool{}
	w.walkStmts(body.List, entry)
}

func (w *lockWalker) report(pos token.Pos, format string, args ...any) {
	if w.mute > 0 {
		return
	}
	w.pkg.pass.Reportf(pos, format, args...)
}

// resolveChain resolves a selector expression (or plain identifier) to its
// root variable and dotted field path. It fails (ok=false) for chains that
// pass through calls, indexing or anything else that breaks instance
// identity.
func (w *lockWalker) resolveChain(e ast.Expr) (root types.Object, path []string, ok bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := identObj(w.pkg.pass.TypesInfo, e)
		if _, isVar := obj.(*types.Var); !isVar {
			return nil, nil, false
		}
		return obj, nil, true
	case *ast.SelectorExpr:
		sel, found := w.pkg.pass.TypesInfo.Selections[e]
		if !found || sel.Kind() != types.FieldVal {
			return nil, nil, false
		}
		root, path, ok = w.resolveChain(e.X)
		if !ok {
			return nil, nil, false
		}
		return root, append(path, e.Sel.Name), true
	case *ast.StarExpr:
		return w.resolveChain(e.X)
	}
	return nil, nil, false
}

// checkAccess validates one guarded-field access site.
func (w *lockWalker) checkAccess(sel *ast.SelectorExpr, info guardInfo, write bool, st lockState) {
	root, path, ok := w.resolveChain(sel)
	if !ok || w.fresh[root] {
		return
	}
	guardPath := append(append([]string{}, path[:len(path)-1]...), info.guard)
	key := lockKey{root, strings.Join(guardPath, ".")}
	mode := st.held[key]
	field := strings.Join(path, ".")
	switch {
	case mode == 0:
		verb := "read"
		if write {
			verb = "written"
		}
		w.report(sel.Sel.Pos(), "%s %s without holding %s (field is marked %s %s)",
			field, verb, key.path, guardedByDirective, info.guard)
	case write && mode < lockExclusive:
		w.report(sel.Sel.Pos(), "%s written while %s is held only for reading; use Lock, not RLock",
			field, key.path)
	}
}

// scanReads reports every guarded-field read under e, not descending into
// function literals (their bodies are walked separately with an empty
// held set).
func (w *lockWalker) scanReads(e ast.Expr, st lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if v, ok := w.pkg.pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok {
				if info, guarded := w.pkg.guards[v]; guarded {
					w.checkAccess(sel, info, false, st)
					w.scanReads(sel.X, st)
					return false
				}
			}
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.checkRequiresCall(call, st)
		}
		return true
	})
}

// scanWrite walks an assignment target: the selector spine is written, the
// index expressions inside it are read.
func (w *lockWalker) scanWrite(e ast.Expr, st lockState) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		// plain local/global write; nothing guarded
	case *ast.SelectorExpr:
		if v, ok := w.pkg.pass.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			if info, guarded := w.pkg.guards[v]; guarded {
				w.checkAccess(e, info, true, st)
			}
		}
		w.scanWrite(e.X, st)
	case *ast.IndexExpr:
		w.scanWrite(e.X, st)
		w.scanReads(e.Index, st)
	case *ast.StarExpr:
		// *p = v writes the pointee; p itself is read.
		w.scanReads(e.X, st)
	default:
		w.scanReads(e, st)
	}
}

// checkRequiresCall verifies a call to a //c56:requires method holds the
// required receiver mutexes exclusively at the call site.
func (w *lockWalker) checkRequiresCall(call *ast.CallExpr, st lockState) {
	obj, ok := calleeObj(w.pkg.pass.TypesInfo, call).(*types.Func)
	if !ok {
		return
	}
	guards, annotated := w.pkg.requires[obj]
	if !annotated {
		return
	}
	selExpr, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	root, path, ok := w.resolveChain(selExpr.X)
	if !ok || w.fresh[root] {
		return
	}
	for _, g := range guards {
		key := lockKey{root, strings.Join(append(append([]string{}, path...), g), ".")}
		if st.held[key] < lockExclusive {
			w.report(call.Pos(), "call to %s requires holding %s exclusively (%s %s)",
				obj.Name(), key.path, requiresDirective, g)
		}
	}
}

// lockOp classifies a statement as a mutex operation on a resolvable
// instance: returns the key, the method name, and whether it matched.
func (w *lockWalker) lockOp(call *ast.CallExpr) (lockKey, string, bool) {
	selExpr, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	fn, ok := w.pkg.pass.TypesInfo.Uses[selExpr.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockKey{}, "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockKey{}, "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || mutexKind(sig.Recv().Type()) == 0 {
		return lockKey{}, "", false
	}
	root, path, ok := w.resolveChain(selExpr.X)
	if !ok {
		return lockKey{}, "", false
	}
	return lockKey{root, strings.Join(path, ".")}, fn.Name(), true
}

// applyLockOp updates st for a mutex call in statement position.
func applyLockOp(st lockState, key lockKey, op string) lockState {
	switch op {
	case "Lock":
		st.held[key] = lockExclusive
	case "RLock":
		if st.held[key] < lockRead {
			st.held[key] = lockRead
		}
	case "Unlock", "RUnlock":
		delete(st.held, key)
	}
	return st
}

// noteFresh records locals bound to freshly constructed values (composite
// literals, new()) — constructor bodies mutate them before publication, so
// guarded-field checks do not apply.
func (w *lockWalker) noteFresh(lhs, rhs ast.Expr) {
	obj := identObj(w.pkg.pass.TypesInfo, lhs)
	v, ok := obj.(*types.Var)
	if !ok || v.Parent() == w.pkg.pass.Pkg.Scope() {
		return
	}
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		w.fresh[obj] = true
		return
	case *ast.UnaryExpr:
		if rhs.Op == token.AND {
			if _, isLit := ast.Unparen(rhs.X).(*ast.CompositeLit); isLit {
				w.fresh[obj] = true
				return
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok {
			if _, isBuiltin := w.pkg.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && id.Name == "new" {
				w.fresh[obj] = true
				return
			}
		}
	}
	// Rebinding a tracked local to anything else ends the exemption.
	delete(w.fresh, obj)
}

// walkFuncLits walks every function literal under n with a fresh walker
// and empty entry state: a closure may run on any goroutine at any time,
// so it can assume nothing about the creator's locks.
func (w *lockWalker) walkFuncLits(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			inner := &lockWalker{pkg: w.pkg, mute: w.mute}
			inner.walkBody(lit.Body, newLockState())
			return false
		}
		return true
	})
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt, st lockState) lockState {
	for _, s := range stmts {
		if st.terminated {
			return st
		}
		st = w.walkStmt(s, st)
	}
	return st
}

func (w *lockWalker) walkStmt(s ast.Stmt, st lockState) lockState {
	switch stmt := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok {
			if key, op, isLock := w.lockOp(call); isLock {
				return applyLockOp(st, key, op)
			}
		}
		w.scanReads(stmt.X, st)
		w.walkFuncLits(stmt.X)
		return st
	case *ast.AssignStmt:
		for _, rhs := range stmt.Rhs {
			w.scanReads(rhs, st)
			w.walkFuncLits(rhs)
		}
		for _, lhs := range stmt.Lhs {
			if stmt.Tok == token.ASSIGN || stmt.Tok == token.DEFINE {
				w.scanWrite(lhs, st)
			} else {
				// Compound assignment (+=, etc.): read and write.
				w.scanReads(lhs, st)
				w.scanWrite(lhs, st)
			}
		}
		if len(stmt.Lhs) == len(stmt.Rhs) {
			for i := range stmt.Lhs {
				w.noteFresh(stmt.Lhs[i], stmt.Rhs[i])
			}
		}
		return st
	case *ast.IncDecStmt:
		w.scanWrite(stmt.X, st)
		return st
	case *ast.DeclStmt:
		if gd, ok := stmt.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					w.scanReads(v, st)
					w.walkFuncLits(v)
				}
				if len(vs.Values) == 0 {
					// `var x T` locals are freshly zeroed and unshared.
					for _, name := range vs.Names {
						if obj := w.pkg.pass.TypesInfo.Defs[name]; obj != nil {
							w.fresh[obj] = true
						}
					}
				} else if len(vs.Values) == len(vs.Names) {
					for i, name := range vs.Names {
						w.noteFresh(ast.Expr(name), vs.Values[i])
					}
				}
			}
		}
		return st
	case *ast.DeferStmt:
		// Deferred mutex releases run at function exit: the lock stays held
		// for the rest of this path. Other deferred calls evaluate their
		// arguments now.
		if _, op, isLock := w.lockOp(stmt.Call); isLock {
			if op == "Unlock" || op == "RUnlock" {
				return st
			}
		}
		for _, arg := range stmt.Call.Args {
			w.scanReads(arg, st)
		}
		w.walkFuncLits(stmt.Call)
		return st
	case *ast.GoStmt:
		for _, arg := range stmt.Call.Args {
			w.scanReads(arg, st)
		}
		w.walkFuncLits(stmt.Call)
		return st
	case *ast.SendStmt:
		w.scanReads(stmt.Chan, st)
		w.scanReads(stmt.Value, st)
		w.walkFuncLits(stmt.Value)
		return st
	case *ast.ReturnStmt:
		for _, res := range stmt.Results {
			w.scanReads(res, st)
			w.walkFuncLits(res)
		}
		st.terminated = true
		return st
	case *ast.BranchStmt:
		w.recordBranch(stmt, st)
		st = st.clone()
		st.terminated = true
		return st
	case *ast.BlockStmt:
		return w.walkStmts(stmt.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(stmt.Stmt, st)
	case *ast.IfStmt:
		if stmt.Init != nil {
			st = w.walkStmt(stmt.Init, st)
		}
		w.scanReads(stmt.Cond, st)
		w.walkFuncLits(stmt.Cond)
		thenSt := w.walkStmts(stmt.Body.List, st.clone())
		elseSt := st.clone()
		if stmt.Else != nil {
			elseSt = w.walkStmt(stmt.Else, elseSt)
		}
		return joinStates([]lockState{thenSt, elseSt})
	case *ast.ForStmt:
		return w.walkLoop(stmt.Init, stmt.Cond, stmt.Post, stmt.Body, st)
	case *ast.RangeStmt:
		return w.walkRange(stmt, st)
	case *ast.SwitchStmt:
		return w.walkCases(stmt.Init, stmt.Tag, nil, stmt.Body, st)
	case *ast.TypeSwitchStmt:
		return w.walkCases(stmt.Init, nil, stmt.Assign, stmt.Body, st)
	case *ast.SelectStmt:
		return w.walkCases(nil, nil, nil, stmt.Body, st)
	default:
		return st
	}
}

// recordBranch files a break/continue state with the construct it exits.
// The target packages use no labeled branches; a labeled branch is filed
// with the innermost matching construct, which is exact for the unlabeled
// common case.
func (w *lockWalker) recordBranch(stmt *ast.BranchStmt, st lockState) {
	for i := len(w.loops) - 1; i >= 0; i-- {
		fr := w.loops[i]
		switch stmt.Tok {
		case token.BREAK:
			fr.breaks = append(fr.breaks, st.clone())
			return
		case token.CONTINUE:
			if fr.isLoop {
				fr.continues = append(fr.continues, st.clone())
				return
			}
		default:
			return // goto: out of scope, treat as terminated
		}
	}
}

// walkLoop analyzes a for loop. The body is iterated to a fixed point with
// reporting muted, so that a lock dropped on a back edge (bottom of the
// body, or a continue) is not assumed held on the next iteration; the
// final pass reports with the stable entry state. The post-loop state
// joins every break with the condition-false exits.
func (w *lockWalker) walkLoop(init ast.Stmt, cond ast.Expr, post ast.Stmt, body *ast.BlockStmt, st lockState) lockState {
	if init != nil {
		st = w.walkStmt(init, st)
	}

	run := func(entry lockState) (out lockState, fr *loopFrame) {
		fr = &loopFrame{isLoop: true}
		w.loops = append(w.loops, fr)
		out = w.walkStmts(body.List, entry.clone())
		if post != nil && !out.terminated {
			out = w.walkStmt(post, out)
		}
		w.loops = w.loops[:len(w.loops)-1]
		return out, fr
	}

	entry := st.clone()
	w.mute++
	for range 4 {
		out, fr := run(entry)
		next := intersect(entry, joinStates(append([]lockState{out}, fr.continues...)))
		nextState := lockState{held: next.held, terminated: false}
		if sameState(nextState, entry) {
			break
		}
		entry = nextState
	}
	w.mute--

	// The condition is evaluated on every entry to the body; check it with
	// the weakest (fixed-point) state so a lock dropped on a back edge is
	// not assumed for the re-check.
	w.scanReads(cond, entry)
	w.walkFuncLits(cond)

	out, fr := run(entry)
	exits := append([]lockState{}, fr.breaks...)
	if cond != nil {
		// The loop can exit when the condition fails: before the first
		// iteration (st) or after any iteration (out).
		exits = append(exits, st)
		if !out.terminated {
			exits = append(exits, out)
		}
	}
	return joinStates(exits)
}

// walkRange analyzes a range loop: the body may run zero times, and each
// iteration re-enters from the back edge.
func (w *lockWalker) walkRange(stmt *ast.RangeStmt, st lockState) lockState {
	w.scanReads(stmt.X, st)
	w.walkFuncLits(stmt.X)
	if stmt.Key != nil {
		w.scanWrite(stmt.Key, st)
	}
	if stmt.Value != nil {
		w.scanWrite(stmt.Value, st)
	}

	run := func(entry lockState) (out lockState, fr *loopFrame) {
		fr = &loopFrame{isLoop: true}
		w.loops = append(w.loops, fr)
		out = w.walkStmts(stmt.Body.List, entry.clone())
		w.loops = w.loops[:len(w.loops)-1]
		return out, fr
	}

	entry := st.clone()
	w.mute++
	for range 4 {
		out, fr := run(entry)
		next := intersect(entry, joinStates(append([]lockState{out}, fr.continues...)))
		nextState := lockState{held: next.held, terminated: false}
		if sameState(nextState, entry) {
			break
		}
		entry = nextState
	}
	w.mute--

	out, fr := run(entry)
	exits := append([]lockState{st}, fr.breaks...)
	if !out.terminated {
		exits = append(exits, out)
	}
	return joinStates(exits)
}

// walkCases analyzes switch/type-switch/select: every case runs from the
// dispatch state; break exits the construct with the current state; the
// result joins all falling-through arms (plus the no-case-taken path for
// a switch without default).
func (w *lockWalker) walkCases(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, st lockState) lockState {
	if init != nil {
		st = w.walkStmt(init, st)
	}
	w.scanReads(tag, st)
	w.walkFuncLits(tag)
	if assign != nil {
		st = w.walkStmt(assign, st)
	}

	fr := &loopFrame{isLoop: false}
	w.loops = append(w.loops, fr)
	hasDefault := false
	var outs []lockState
	for _, c := range body.List {
		var caseBody []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				w.scanReads(e, st)
			}
			caseBody = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
				caseBody = cc.Body
			} else {
				caseBody = append([]ast.Stmt{cc.Comm}, cc.Body...)
			}
		}
		outs = append(outs, w.walkStmts(caseBody, st.clone()))
	}
	w.loops = w.loops[:len(w.loops)-1]
	outs = append(outs, fr.breaks...)
	if !hasDefault {
		outs = append(outs, st)
	}
	return joinStates(outs)
}
