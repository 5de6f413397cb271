// Package nonetunderlock enforces the "no network under locks"
// discipline: no RPC may be issued while a sync.Mutex / sync.RWMutex is
// held. A blocking Call under a store or server mutex turns one slow
// peer into a cluster-wide pileup (every local operation queues behind
// a remote timeout) and is one deadlock half away from a distributed
// lock cycle — the property the PR5 generation-checked cache redesign
// and the PR6 admission work both exist to preserve.
//
// The analysis is intraprocedural and lexical: within each function it
// tracks which mutexes are held after `x.Lock()` / `x.RLock()`
// statements (released by a matching Unlock statement; `defer
// x.Unlock()` holds to the end of the function), and reports any
// network call made while the held set is non-empty. Goroutine bodies
// (`go func(){…}`) do not inherit the held set; deferred calls other
// than unlocks are skipped. Branch bodies see a copy of the held set,
// so a release inside one branch does not clear the other — that bias
// is deliberate (a conditional release is a smell of its own).
//
// A call is "network" when its callee resolves, through go/types, to:
//   - method Call in a package whose path ends in transport or replica
//     (the Transport interface, its TCP/InProc/Flaky implementations,
//     and the replica Inventory), or any CallService method;
//   - an RPC-backed method on the cluster Client: *Via, plus the
//     explicit set (Configure, Forget, StoreStats, Ingest, BuildRemote,
//     Audit);
//   - any exported method on the replica Repairer (Sweep, CatchUp,
//     Audit all fan out RPCs).
package nonetunderlock

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer is the nonetunderlock pass.
var Analyzer = &analysis.Analyzer{
	Name: "nonetunderlock",
	Doc:  "forbid transport/cluster/replica RPC calls while a sync mutex is held",
	Run:  run,
}

// rpcClientMethods are the cluster.Client methods that perform RPCs but
// do not end in Via.
var rpcClientMethods = map[string]bool{
	"Configure": true, "Forget": true,
	"StoreStats": true, "Ingest": true, "BuildRemote": true, "Audit": true,
}

func run(pass *analysis.Pass) error {
	w := &walker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.block(fd.Body.List, map[string]token.Pos{})
			}
		}
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
}

// block scans a statement list in source order, mutating held as lock
// statements come and go.
func (w *walker) block(list []ast.Stmt, held map[string]token.Pos) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func clone(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (w *walker) stmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if lock, acquire, ok := w.lockTransition(s.X); ok {
			if acquire {
				held[lock] = s.Pos()
			} else {
				delete(held, lock)
			}
			return
		}
		w.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` keeps the lock held to function end,
		// which is how the held set already models it; other deferred
		// work runs at return under unknowable lock state — skip.
	case *ast.GoStmt:
		// A spawned goroutine does not hold the caller's locks.
	case *ast.BlockStmt:
		w.block(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.checkExpr(s.Cond, held)
		w.block(s.Body.List, clone(held))
		if s.Else != nil {
			w.stmt(s.Else, clone(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, held)
		}
		body := clone(held)
		w.block(s.Body.List, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.checkExpr(s.X, held)
		w.block(s.Body.List, clone(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(cc.Body, clone(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(cc.Body, clone(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.block(cc.Body, clone(held))
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	default:
		// Assignments, returns, declarations, sends, …: no statement
		// structure to track, just expressions to check.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.checkExpr(e, held)
				return false
			}
			return true
		})
	}
}

// lockTransition recognizes `x.Lock()` / `x.RLock()` / `x.Unlock()` /
// `x.RUnlock()` on a sync mutex and returns the lock's expression
// string and direction.
func (w *walker) lockTransition(e ast.Expr) (lock string, acquire, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	fn := lintutil.CalleeFunc(w.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), true, true
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), false, true
	}
	return "", false, false
}

// checkExpr reports network calls anywhere in the expression while a
// lock is held. Function-literal bodies are skipped unless the literal
// is invoked on the spot.
func (w *walker) checkExpr(e ast.Expr, held map[string]token.Pos) {
	if len(held) == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				// An immediately-invoked literal runs under the lock.
				w.block(lit.Body.List, clone(held))
			}
			if fn := lintutil.CalleeFunc(w.pass.TypesInfo, n); fn != nil && isNetCall(fn) {
				for lock := range held {
					w.pass.Reportf(n.Pos(), "RPC %s.%s while %s is held — no network under locks",
						receiverOrPkg(fn), fn.Name(), lock)
					break
				}
			}
		}
		return true
	})
}

func isNetCall(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	tail := lintutil.PathTail(fn.Pkg().Path())
	recv := lintutil.ReceiverTypeName(fn)
	name := fn.Name()
	switch {
	case name == "CallService":
		return true
	case name == "Call" && (tail == "transport" || tail == "replica"):
		return true
	case tail == "cluster" && recv == "Client" &&
		(strings.HasSuffix(name, "Via") || rpcClientMethods[name]):
		return true
	case tail == "replica" && recv == "Repairer" && ast.IsExported(name):
		return true
	}
	return false
}

func receiverOrPkg(fn *types.Func) string {
	if r := lintutil.ReceiverTypeName(fn); r != "" {
		return r
	}
	return lintutil.PathTail(fn.Pkg().Path())
}
