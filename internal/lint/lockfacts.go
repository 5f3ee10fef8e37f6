package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lock-fact extraction: the per-function walk that feeds the lockorder
// analyzer. It mirrors the linear held-set walker locksend and shardlock
// share (heldscan.go) but tracks mutex *classes* (declaration identity,
// not instance spelling), records an edge whenever a class is acquired
// while another is held, follows calls
// through the facts store (a callee's Acquires induce edges under the
// caller's held set; its HeldAtExit extends the caller's held set — that
// is how LockB()/UnlockB() helper pairs and cross-package cycles become
// visible), and honours the ...Locked caller-holds convention by seeding
// the held set with the receiver's mutex-field classes.
//
// Same-class re-acquisition is the stripe hazard: locking shard[j].mu
// while shard[i].mu is held deadlocks against a concurrent sweep in the
// opposite order. The one provably safe shape is the lock-all loop that
// walks a slice in ascending index order — the same site re-acquiring
// its class across iterations of a slice/array loop (or an i++ counter
// loop) is exempt; a map range is not, because map iteration order is
// deliberately unspecified.

// heldSrc records how a held class was acquired.
type heldSrc struct {
	pos      token.Pos // acquire site, for the ascending-loop exemption
	deferred bool      // unlock is deferred: not held at (normal) exit
	assumed  bool      // ...Locked entry assumption: the caller holds it
}

type lockFactScan struct {
	f    *Facts
	rec  *funcRec
	fact *FuncFact
	info *types.Info
	// ordered is non-zero while re-scanning the body of a provably
	// ascending loop (second pass with loop-carried locks held).
	ordered int
}

// lockFacts fills nf's Acquires/HeldAtExit/Edges from rec's body.
func (f *Facts) lockFacts(rec *funcRec, nf *FuncFact) {
	lf := &lockFactScan{f: f, rec: rec, fact: nf, info: rec.pkg.Info}
	held := map[MutexClass]heldSrc{}
	for _, cls := range lf.assumedHeld() {
		held[cls] = heldSrc{assumed: true}
	}
	if !lf.scanList(rec.decl.Body.List, held) {
		lf.recordExit(held)
	}
}

// assumedHeld returns the mutex-field classes of the receiver struct for
// ...Locked methods: the documented caller-holds convention (shardlock
// skips their bodies; here their call sites resolve against the caller's
// held set, so the classes are assumed, not acquired).
func (lf *lockFactScan) assumedHeld() []MutexClass {
	if !hasSuffixLocked(lf.rec.fn.Name()) {
		return nil
	}
	sig, _ := lf.rec.fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []MutexClass
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if isSyncMutex(fld.Type()) {
			out = append(out, fieldClass(named, fld))
		}
	}
	return out
}

func fieldClass(owner *types.Named, fld *types.Var) MutexClass {
	pkg := ""
	if fld.Pkg() != nil {
		pkg = fld.Pkg().Path()
	}
	return MutexClass(pkg + "." + owner.Obj().Name() + "." + fld.Name())
}

// classify resolves the mutex class behind the receiver expression of a
// sync lock/unlock call ("c.mu", "mu", "shards[i].mu", an embedded
// promotion).
func (lf *lockFactScan) classify(e ast.Expr) MutexClass {
	e = ast.Unparen(e)
	switch t := e.(type) {
	case *ast.SelectorExpr:
		if v, ok := lf.info.Uses[t.Sel].(*types.Var); ok {
			pkg := ""
			if v.Pkg() != nil {
				pkg = v.Pkg().Path()
			}
			if v.IsField() {
				owner := namedTypeName(lf.info.TypeOf(t.X))
				if owner == "" {
					owner = "<anon>"
				}
				return MutexClass(pkg + "." + owner + "." + v.Name())
			}
			return MutexClass(pkg + "." + v.Name())
		}
	case *ast.Ident:
		if v, ok := lf.info.Uses[t].(*types.Var); ok {
			if !isSyncMutex(v.Type()) {
				// Embedded promotion: c.Lock() on a struct embedding the
				// mutex — the class belongs to the embedding type.
				if named, ok := derefNamed(v.Type()); ok {
					pkg := ""
					if named.Obj().Pkg() != nil {
						pkg = named.Obj().Pkg().Path()
					}
					return MutexClass(pkg + "." + named.Obj().Name() + ".Mutex")
				}
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return MutexClass(v.Pkg().Path() + "." + v.Name())
			}
			pkg := ""
			if v.Pkg() != nil {
				pkg = v.Pkg().Path()
			}
			return MutexClass(pkg + "." + lf.rec.fn.Name() + "." + v.Name())
		}
	case *ast.IndexExpr:
		return lf.classify(t.X) // mus[i]: the array/slice is the domain
	}
	pkg := ""
	if lf.rec.fn.Pkg() != nil {
		pkg = lf.rec.fn.Pkg().Path()
	}
	return MutexClass(pkg + ".expr:" + types.ExprString(e))
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// classLockCall matches mu.Lock/RLock (isLock) and mu.Unlock/RUnlock on
// sync mutexes, resolving the receiver to its class. RLock shares its
// mutex's class: reader/writer distinction does not change cycle
// potential against a writer.
func (lf *lockFactScan) classLockCall(e ast.Expr) (cls MutexClass, isLock, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	fn := calleeFuncOf(lf.info, call)
	switch {
	case methodIs(fn, "sync", "Mutex", "Lock"),
		methodIs(fn, "sync", "RWMutex", "Lock"),
		methodIs(fn, "sync", "RWMutex", "RLock"):
		isLock = true
	case methodIs(fn, "sync", "Mutex", "Unlock"),
		methodIs(fn, "sync", "RWMutex", "Unlock"),
		methodIs(fn, "sync", "RWMutex", "RUnlock"):
		isLock = false
	default:
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	return lf.classify(sel.X), isLock, true
}

func (lf *lockFactScan) addEdge(from, to MutexClass, pos token.Pos) {
	for _, e := range lf.fact.Edges {
		if e.From == from && e.To == to {
			return
		}
	}
	lf.fact.Edges = append(lf.fact.Edges, LockEdge{From: from, To: to, Pos: pos})
}

// acquire records locking cls at pos against the current held set.
func (lf *lockFactScan) acquire(cls MutexClass, pos token.Pos, held map[MutexClass]heldSrc) {
	lf.fact.Acquires[cls] = true
	for h := range held {
		if h == cls {
			src := held[h]
			// Ascending-sweep exemption: the same site re-acquiring its
			// class on the next iteration of an ordered loop.
			if lf.ordered > 0 && src.pos == pos {
				continue
			}
			lf.addEdge(cls, cls, pos)
			continue
		}
		lf.addEdge(h, cls, pos)
	}
	held[cls] = heldSrc{pos: pos}
}

// recordExit folds the held set into HeldAtExit at a normal exit.
func (lf *lockFactScan) recordExit(held map[MutexClass]heldSrc) {
	for cls, src := range held {
		if !src.deferred && !src.assumed {
			lf.fact.HeldAtExit[cls] = true
		}
	}
}

// handleCalls folds summarized callees anywhere in e into the scan:
// edges from every held class to everything the callee acquires, and the
// callee's HeldAtExit extends the held set. Function literals are skipped
// (they run when invoked); lock/unlock calls are handled at statement
// level.
func (lf *lockFactScan) handleCalls(e ast.Expr, held map[MutexClass]heldSrc) {
	if e == nil {
		return
	}
	goTargets := map[*ast.CallExpr]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			goTargets[t.Call] = true
		case *ast.CallExpr:
			if goTargets[t] {
				return true
			}
			if _, _, ok := lf.classLockCall(t); ok {
				return true
			}
			ft := lf.f.Summary(calleeFuncOf(lf.info, t))
			if ft == nil {
				return true
			}
			for b := range ft.Acquires {
				lf.fact.Acquires[b] = true
				for h := range held {
					lf.addEdge(h, b, t.Pos())
				}
			}
			for c := range ft.HeldAtExit {
				if _, ok := held[c]; !ok {
					held[c] = heldSrc{pos: t.Pos()}
				}
			}
		}
		return true
	})
}

func (lf *lockFactScan) scanList(list []ast.Stmt, held map[MutexClass]heldSrc) bool {
	for _, s := range list {
		if lf.scanStmt(s, held) {
			return true
		}
	}
	return false
}

func (lf *lockFactScan) scanStmt(s ast.Stmt, held map[MutexClass]heldSrc) (terminated bool) {
	switch t := s.(type) {
	case *ast.ExprStmt:
		if cls, isLock, ok := lf.classLockCall(t.X); ok {
			if isLock {
				lf.acquire(cls, t.X.Pos(), held)
			} else {
				delete(held, cls)
			}
			return false
		}
		lf.handleCalls(t.X, held)
		if isPanicCall(t.X) {
			return true
		}
		return false

	case *ast.DeferStmt:
		if cls, isLock, ok := lf.classLockCall(t.Call); ok && !isLock {
			if src, have := held[cls]; have {
				src.deferred = true
				held[cls] = src
			}
			return false
		}
		// A deferred call's own acquisitions happen at exit with an
		// unknowable held set; count them as Acquires without edges.
		if ft := lf.f.Summary(calleeFuncOf(lf.info, t.Call)); ft != nil {
			for b := range ft.Acquires {
				lf.fact.Acquires[b] = true
			}
		}
		for _, arg := range t.Call.Args {
			lf.handleCalls(arg, held)
		}
		return false

	case *ast.GoStmt:
		for _, arg := range t.Call.Args {
			lf.handleCalls(arg, held)
		}
		return false

	case *ast.SendStmt:
		lf.handleCalls(t.Chan, held)
		lf.handleCalls(t.Value, held)
		return false

	case *ast.IncDecStmt:
		lf.handleCalls(t.X, held)
		return false

	case *ast.AssignStmt:
		for _, rhs := range t.Rhs {
			lf.handleCalls(rhs, held)
		}
		return false

	case *ast.ReturnStmt:
		for _, r := range t.Results {
			lf.handleCalls(r, held)
		}
		lf.recordExit(held)
		return true

	case *ast.BranchStmt:
		return true

	case *ast.IfStmt:
		if t.Init != nil {
			lf.scanStmt(t.Init, held)
		}
		lf.handleCalls(t.Cond, held)
		thenHeld := copyHeldSrc(held)
		thenTerm := lf.scanList(t.Body.List, thenHeld)
		elseHeld := copyHeldSrc(held)
		elseTerm := false
		if t.Else != nil {
			elseTerm = lf.scanStmt(t.Else, elseHeld)
		}
		var arms []map[MutexClass]heldSrc
		if !thenTerm {
			arms = append(arms, thenHeld)
		}
		if !elseTerm {
			arms = append(arms, elseHeld)
		}
		if len(arms) == 0 {
			return true
		}
		reconcileHeldSrc(held, arms...)
		return false

	case *ast.BlockStmt:
		return lf.scanList(t.List, held)

	case *ast.LabeledStmt:
		return lf.scanStmt(t.Stmt, held)

	case *ast.ForStmt:
		if t.Init != nil {
			lf.scanStmt(t.Init, held)
		}
		lf.handleCalls(t.Cond, held)
		lf.scanLoop(t.Body, held, orderedFor(t))
		// `for {}` without a break never falls through: every exit is a
		// return inside the body (the worker-loop shape), so the held set
		// here must not reach a phantom function exit.
		return t.Cond == nil && !hasLoopBreak(t.Body)

	case *ast.RangeStmt:
		lf.handleCalls(t.X, held)
		return lf.scanLoop(t.Body, held, orderedRange(lf.info, t))

	case *ast.SwitchStmt:
		if t.Init != nil {
			lf.scanStmt(t.Init, held)
		}
		lf.handleCalls(t.Tag, held)
		lf.scanClauses(t.Body, held)
		return false

	case *ast.TypeSwitchStmt:
		if t.Init != nil {
			lf.scanStmt(t.Init, held)
		}
		lf.scanClauses(t.Body, held)
		return false

	case *ast.SelectStmt:
		lf.scanClauses(t.Body, held)
		return false
	}
	return false
}

// scanLoop scans a loop body; when the body leaves locks held that were
// not held on entry (a lock-all sweep), it re-scans once with those
// loop-carried locks held, so iteration-crossing edges — including the
// same-class stripe edge — are observed. ordered loops exempt the
// same-site re-acquisition.
func (lf *lockFactScan) scanLoop(body *ast.BlockStmt, held map[MutexClass]heldSrc, ordered bool) bool {
	bodyHeld := copyHeldSrc(held)
	if lf.scanList(body.List, bodyHeld) {
		return false
	}
	carried := false
	for cls := range bodyHeld {
		if _, ok := held[cls]; !ok {
			carried = true
			break
		}
	}
	if carried {
		second := copyHeldSrc(bodyHeld)
		if ordered {
			lf.ordered++
		}
		lf.scanList(body.List, second)
		if ordered {
			lf.ordered--
		}
	}
	reconcileHeldSrc(held, bodyHeld)
	return false
}

// orderedFor recognizes the counting loop shape `for i := 0; i < n; i++`,
// whose iteration order is provably ascending.
func orderedFor(t *ast.ForStmt) bool {
	inc, ok := t.Post.(*ast.IncDecStmt)
	return ok && inc.Tok == token.INC
}

// orderedRange reports whether the range iterates a slice or array —
// ascending index order by the language spec. Map ranges are
// deliberately excluded.
func orderedRange(info *types.Info, t *ast.RangeStmt) bool {
	typ := info.TypeOf(t.X)
	if typ == nil {
		return false
	}
	u := typ.Underlying()
	if ptr, ok := u.(*types.Pointer); ok {
		u = ptr.Elem().Underlying()
	}
	switch u.(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

func (lf *lockFactScan) scanClauses(body *ast.BlockStmt, held map[MutexClass]heldSrc) {
	var arms []map[MutexClass]heldSrc
	for _, c := range body.List {
		armHeld := copyHeldSrc(held)
		var term bool
		switch cl := c.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				lf.handleCalls(e, armHeld)
			}
			term = lf.scanList(cl.Body, armHeld)
		case *ast.CommClause:
			if cl.Comm != nil {
				lf.scanStmt(cl.Comm, armHeld)
			}
			term = lf.scanList(cl.Body, armHeld)
		default:
			continue
		}
		if !term {
			arms = append(arms, armHeld)
		}
	}
	if len(arms) > 0 {
		reconcileHeldSrc(held, arms...)
	}
}

func copyHeldSrc(held map[MutexClass]heldSrc) map[MutexClass]heldSrc {
	out := make(map[MutexClass]heldSrc, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// reconcileHeldSrc merges arm states optimistically, like heldscan's
// reconcile: a class stays (or becomes) held only when every live arm
// holds it. A deferred-unlock mark in any arm survives the merge so the
// class stays out of HeldAtExit.
func reconcileHeldSrc(held map[MutexClass]heldSrc, arms ...map[MutexClass]heldSrc) {
	for cls := range held {
		for _, arm := range arms {
			if _, ok := arm[cls]; !ok {
				delete(held, cls)
				break
			}
		}
	}
	if len(arms) == 0 {
		return
	}
	for cls, src := range arms[0] {
		all := true
		for _, arm := range arms[1:] {
			if _, ok := arm[cls]; !ok {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		merged := src
		if cur, ok := held[cls]; ok {
			merged = cur
		}
		for _, arm := range arms {
			if s, ok := arm[cls]; ok && s.deferred {
				merged.deferred = true
			}
		}
		held[cls] = merged
	}
}
