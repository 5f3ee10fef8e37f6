package lint

import (
	"go/ast"
	"go/token"
)

// LockSend flags channel operations and function-value callbacks performed
// between a mu.Lock() and its Unlock when the unlock is not deferred — the
// UDT conn/mux deadlock class. A send on an unbuffered (or full) channel
// parks the goroutine while it holds the mutex; if the receiver needs that
// same mutex to drain the channel, both sides wait forever. Calling a
// caller-supplied function value under the lock is the same bug one hop
// out: the callback may block, or reenter and self-deadlock.
//
// `mu.Lock(); defer mu.Unlock()` is exempt: with a deferred unlock a
// parked send still holds the lock, but panics and early returns cannot
// leave it held, and the pattern signals the critical section spans the
// whole function by design. The fix kmlint pushes toward is the one
// udt.Conn.dispatch uses: copy what you need under the lock, Unlock, then
// send or call.
var LockSend = &Analyzer{
	Name: "locksend",
	Doc:  "no channel sends or function-value callbacks while holding a non-deferred mutex lock",
	Run:  runLockSend,
}

func runLockSend(pass *Pass) {
	ls := &lockScan{pass: pass}
	hs := &heldScan{pass: pass, visit: ls.checkCall, send: ls.checkSend}
	hs.run()
}

// lockScan holds locksend's checks, run by the shared held-mutex walker
// (heldscan.go).
type lockScan struct {
	pass *Pass
}

func (ls *lockScan) checkSend(pos token.Pos, held map[string]bool) {
	ls.reportIfHeld(pos, held, "channel send")
}

// checkCall flags a function-value call evaluated under a held lock.
func (ls *lockScan) checkCall(n ast.Node, held map[string]bool) {
	if call, ok := n.(*ast.CallExpr); ok && len(held) > 0 {
		if v := ls.pass.calleeVar(call); v != nil {
			ls.reportIfHeld(call.Pos(), held, "callback through function value "+v.Name())
		}
	}
}

// reportIfHeld reports once per site, naming the first held lock in
// sorted order even if several are held.
func (ls *lockScan) reportIfHeld(pos token.Pos, held map[string]bool, what string) {
	first := ""
	for mu := range held {
		if first == "" || mu < first {
			first = mu
		}
	}
	if first != "" {
		ls.pass.Reportf(pos,
			"%s while holding %s.Lock() without a deferred unlock can deadlock; unlock first or defer the unlock",
			what, first)
	}
}
