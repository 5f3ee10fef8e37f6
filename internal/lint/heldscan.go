package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// heldScan is the held-mutex walker locksend and shardlock share. It
// walks each function body's statements in order against the set of
// mutexes held, identified by the printed form of the receiver expression
// ("c.mu"), which is exact within one function for the field-or-local
// receivers the codebase uses. The analyzers differ only in their hooks
// and in what a deferred unlock means.
type heldScan struct {
	pass *Pass
	// visit sees every node of every expression a statement evaluates
	// where it stands, outside function literals (their bodies run later).
	visit func(n ast.Node, held map[string]bool)
	// send, when set, sees every channel send, select comm clauses too.
	send func(pos token.Pos, held map[string]bool)
	// deferKeepsHeld: `defer mu.Unlock()` keeps mu held to the end of the
	// function (shardlock) instead of ending its tracking (locksend).
	deferKeepsHeld bool
	// skipLocked skips "...Locked" functions and their literals: they
	// assert the caller-holds-the-lock convention, and the caller's own
	// scan covers the call site.
	skipLocked bool
}

// run scans every function body in the pass from an empty held set;
// nested literals get their own scan.
func (hs *heldScan) run() {
	for _, file := range hs.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if hs.skipLocked && hasSuffixLocked(fn.Name.Name) {
					return false
				}
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				hs.scanList(body.List, map[string]bool{})
			}
			return true
		})
	}
}

func hasSuffixLocked(name string) bool { return strings.HasSuffix(name, "Locked") }

// scanList processes statements in order against the set of held locks,
// reporting whether the list terminates control flow (return/panic). The
// set is mutated in place; branch constructs scan each arm with a copy and
// then reconcile optimistically (a lock released in any live arm is
// treated as released — false negatives over false positives at merge
// points; see branches).
func (hs *heldScan) scanList(list []ast.Stmt, held map[string]bool) bool {
	for _, s := range list {
		if hs.scanStmt(s, held) {
			return true
		}
	}
	return false
}

func (hs *heldScan) scanStmt(s ast.Stmt, held map[string]bool) (terminated bool) {
	switch t := s.(type) {
	case *ast.ExprStmt:
		if mu, isLock := lockCall(hs.pass, t.X); mu != "" {
			if isLock {
				held[mu] = true
			} else {
				delete(held, mu)
			}
			return false
		}
		hs.expr(t.X, held)
		return isPanicCall(t.X)

	case *ast.DeferStmt:
		if mu, isLock := lockCall(hs.pass, t.Call); mu != "" && !isLock {
			if !hs.deferKeepsHeld {
				delete(held, mu)
			}
			return false
		}
		// Other deferred calls run at return, after this scan's critical
		// sections; only their arguments evaluate here.
		hs.exprs(t.Call.Args, held)

	case *ast.SendStmt:
		if hs.send != nil {
			hs.send(t.Pos(), held)
		}
		hs.exprs([]ast.Expr{t.Chan, t.Value}, held)

	case *ast.IncDecStmt:
		hs.expr(t.X, held)

	case *ast.GoStmt:
		// The spawned goroutine does not hold this goroutine's locks;
		// only the argument expressions evaluate here.
		hs.exprs(t.Call.Args, held)

	case *ast.AssignStmt:
		hs.exprs(t.Lhs, held)
		hs.exprs(t.Rhs, held)

	case *ast.ReturnStmt:
		hs.exprs(t.Results, held)
		return true

	case *ast.BranchStmt:
		// break/continue/goto leave this linear path; treat like
		// termination so the enclosing merge ignores this arm's state.
		return true

	case *ast.IfStmt:
		hs.scanStmt(t.Init, held)
		hs.expr(t.Cond, held)
		return hs.branches(held, hs.arm(t.Body.List),
			func(h map[string]bool) bool { return hs.scanStmt(t.Else, h) })

	case *ast.BlockStmt:
		return hs.scanList(t.List, held)

	case *ast.LabeledStmt:
		return hs.scanStmt(t.Stmt, held)

	// A loop body is merged as the only arm: it is assumed to run.
	case *ast.ForStmt:
		hs.scanStmt(t.Init, held)
		hs.expr(t.Cond, held)
		hs.branches(held, hs.arm(t.Body.List))

	case *ast.RangeStmt:
		hs.expr(t.X, held)
		hs.branches(held, hs.arm(t.Body.List))

	case *ast.SwitchStmt:
		hs.scanStmt(t.Init, held)
		hs.expr(t.Tag, held)
		hs.scanClauses(t.Body, held)

	case *ast.TypeSwitchStmt:
		hs.scanStmt(t.Init, held)
		hs.scanClauses(t.Body, held)

	case *ast.SelectStmt:
		for _, c := range t.Body.List {
			if send, ok := c.(*ast.CommClause).Comm.(*ast.SendStmt); ok && hs.send != nil {
				hs.send(send.Pos(), held)
			}
		}
		hs.scanClauses(t.Body, held)
	}
	// Absent statements (a nil Init or Else) fall through here too.
	return false
}

// expr visits e's nodes; e may be nil (an absent condition or tag).
func (hs *heldScan) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, lit := n.(*ast.FuncLit); lit || n == nil {
			return false
		}
		hs.visit(n, held)
		return true
	})
}

func (hs *heldScan) exprs(list []ast.Expr, held map[string]bool) {
	for _, e := range list {
		hs.expr(e, held)
	}
}

// arm scans list as one branch arm.
func (hs *heldScan) arm(list []ast.Stmt) func(map[string]bool) bool {
	return func(h map[string]bool) bool { return hs.scanList(list, h) }
}

// scanClauses scans a switch or select body's clauses as arms. A clause
// list without a default is still merged over its clauses alone, and the
// statement never counts as terminating.
func (hs *heldScan) scanClauses(body *ast.BlockStmt, held map[string]bool) {
	var arms []func(map[string]bool) bool
	for _, c := range body.List {
		switch cl := c.(type) {
		case *ast.CaseClause:
			arms = append(arms, func(h map[string]bool) bool {
				hs.exprs(cl.List, h)
				return hs.scanList(cl.Body, h)
			})
		case *ast.CommClause:
			arms = append(arms, hs.arm(cl.Body))
		}
	}
	hs.branches(held, arms...)
}

// branches scans each arm with its own copy of held and reconciles the
// arms that do not terminate into held, reporting whether every arm
// terminates. Terminating arms stay out of the merge: the common
// `if cond { mu.Unlock(); return }` early exit must not mark the lock
// released on the fall-through path.
func (hs *heldScan) branches(held map[string]bool, arms ...func(map[string]bool) bool) bool {
	var live []map[string]bool
	for _, arm := range arms {
		if h := maps.Clone(held); !arm(h) {
			live = append(live, h)
		}
	}
	if len(live) == 0 {
		return true
	}
	reconcile(held, live...)
	return false
}

// lockCall matches mu.Lock/RLock (isLock=true) and mu.Unlock/RUnlock
// (false) on sync.Mutex/RWMutex receivers, returning the receiver's
// printed form, or "" for any other expression.
func lockCall(pass *Pass, e ast.Expr) (mu string, isLock bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false
	}
	fn := pass.calleeFunc(call)
	if fn == nil || !methodIs(fn, "sync", "Mutex", fn.Name()) && !methodIs(fn, "sync", "RWMutex", fn.Name()) {
		return "", false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		isLock = true
	case "Unlock", "RUnlock":
	default:
		return "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	return types.ExprString(sel.X), isLock
}

// reconcile sets held to the locks every scanned arm still holds —
// optimistic at merges, which avoids false positives after
// lock-in-one-branch patterns. A lock acquired in every arm is treated as
// held afterwards.
func reconcile(held map[string]bool, arms ...map[string]bool) {
	clear(held)
	for mu := range arms[0] {
		all := true
		for _, arm := range arms[1:] {
			all = all && arm[mu]
		}
		if all {
			held[mu] = true
		}
	}
}
