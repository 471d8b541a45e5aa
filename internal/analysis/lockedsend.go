package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockedSend reports blocking operations performed while a
// sync.Mutex or sync.RWMutex is held: channel sends and receives,
// selects without a default case, sync.WaitGroup.Wait,
// sync.Cond.Wait, time.Sleep, and re-acquiring a mutex that is
// already held (the read-lock-upgrade deadlock).
//
// This is the PR 7 incident class: Engine.Ingest held e.mu.RLock
// across a blocking shard-queue send, so a wedged persister parked
// producers inside the read lock and deadlocked Close's write lock
// behind them. The analyzer tracks lock state per function in source
// order, branch-aware: an Unlock inside an if-branch that returns
// does not release the lock on the fallthrough path, and after a
// conditional the lock is considered held only if every surviving
// path still holds it (so partial unlocks err toward silence, not
// false alarms). Function literals are analyzed as fresh goroutine
// contexts. The analysis is intra-procedural — a helper that sends on
// a channel is not traced through a call — which is exactly the
// granularity the repo's lock helpers (admit/send) are shaped
// for.
var LockedSend = &Analyzer{
	Name: "lockedsend",
	Doc:  "report blocking channel operations and unbounded waits while a sync mutex is held",
	Run:  runLockedSend,
}

type lockMode uint8

const (
	lockWrite lockMode = iota
	lockRead
)

// lockState maps a lock's receiver expression (rendered as source,
// e.g. "e.mu") to the mode it is held in.
type lockState map[string]lockMode

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// heldNames renders the held set for diagnostics: "e.mu" or
// "e.mu, l.compactMu".
func (s lockState) heldNames() string {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// intersectStates keeps only locks held on every surviving path.
func intersectStates(states []lockState) lockState {
	if len(states) == 0 {
		return lockState{}
	}
	out := states[0].clone()
	for _, s := range states[1:] {
		for k := range out {
			if _, ok := s[k]; !ok {
				delete(out, k)
			}
		}
	}
	return out
}

func runLockedSend(pass *Pass) error {
	t := &lockTracker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					t.walkStmts(d.Body.List, lockState{})
				}
			case *ast.GenDecl:
				// Function literals in package-level var initializers.
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							t.checkExpr(v, lockState{})
						}
					}
				}
			}
		}
	}
	return nil
}

type lockTracker struct {
	pass *Pass
}

// walkStmts interprets stmts in source order, threading the held-lock
// state through branches. It returns the state after the block and
// whether the block always terminates flow (return, panic, branch).
func (t *lockTracker) walkStmts(stmts []ast.Stmt, held lockState) (lockState, bool) {
	for _, stmt := range stmts {
		var term bool
		held, term = t.walkStmt(stmt, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (t *lockTracker) walkStmt(stmt ast.Stmt, held lockState) (lockState, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if t.applyLockOp(call, held) {
				return held, false
			}
			if isTerminalCall(t.pass, call) {
				t.checkExpr(s.X, held)
				return held, true
			}
		}
		t.checkExpr(s.X, held)
		return held, false

	case *ast.SendStmt:
		if len(held) > 0 {
			t.pass.Reportf(s.Arrow, "blocking channel send while holding %s", held.heldNames())
		}
		t.checkExpr(s.Chan, held)
		t.checkExpr(s.Value, held)
		return held, false

	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			t.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			t.checkExpr(e, held)
		}
		return held, false

	case *ast.DeferStmt:
		// A deferred Unlock releases at return, not here: the lock
		// stays held for the rest of the body. The deferred closure
		// itself runs in an unknown lock context — analyze it fresh.
		if _, op, ok := lockOpOf(t.pass, s.Call); ok && (op == opUnlock || op == opRUnlock) {
			return held, false
		}
		for _, arg := range s.Call.Args {
			t.checkExpr(arg, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			t.walkStmts(lit.Body.List, lockState{})
		}
		return held, false

	case *ast.GoStmt:
		// The goroutine body runs concurrently with no inherited lock;
		// only the argument expressions evaluate synchronously here.
		for _, arg := range s.Call.Args {
			t.checkExpr(arg, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			t.walkStmts(lit.Body.List, lockState{})
		}
		return held, false

	case *ast.ReturnStmt:
		for _, e := range s.Results {
			t.checkExpr(e, held)
		}
		return held, true

	case *ast.BranchStmt:
		return held, true

	case *ast.BlockStmt:
		return t.walkStmts(s.List, held)

	case *ast.LabeledStmt:
		return t.walkStmt(s.Stmt, held)

	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = t.walkStmt(s.Init, held)
		}
		t.checkExpr(s.Cond, held)
		var outs []lockState
		thenOut, thenTerm := t.walkStmts(s.Body.List, held.clone())
		if !thenTerm {
			outs = append(outs, thenOut)
		}
		if s.Else != nil {
			elseOut, elseTerm := t.walkStmt(s.Else, held.clone())
			if !elseTerm {
				outs = append(outs, elseOut)
			}
			if len(outs) == 0 {
				return held, true
			}
		} else {
			outs = append(outs, held)
		}
		return intersectStates(outs), false

	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = t.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			t.checkExpr(s.Cond, held)
		}
		bodyOut, bodyTerm := t.walkStmts(s.Body.List, held.clone())
		if s.Post != nil {
			t.walkStmt(s.Post, bodyOut)
		}
		outs := []lockState{held}
		if !bodyTerm {
			outs = append(outs, bodyOut)
		}
		return intersectStates(outs), false

	case *ast.RangeStmt:
		t.checkExpr(s.X, held)
		bodyOut, bodyTerm := t.walkStmts(s.Body.List, held.clone())
		outs := []lockState{held}
		if !bodyTerm {
			outs = append(outs, bodyOut)
		}
		return intersectStates(outs), false

	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = t.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			t.checkExpr(s.Tag, held)
		}
		return t.walkCaseBodies(s.Body, held)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = t.walkStmt(s.Init, held)
		}
		t.walkStmt(s.Assign, held)
		return t.walkCaseBodies(s.Body, held)

	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && len(held) > 0 {
			t.pass.Reportf(s.Select, "blocking select (no default case) while holding %s", held.heldNames())
		}
		var outs []lockState
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			// The comm statements themselves are covered by the
			// select-level report (or non-blocking when a default
			// exists); only the clause bodies need walking.
			out, term := t.walkStmts(cc.Body, held.clone())
			if !term {
				outs = append(outs, out)
			}
		}
		if len(outs) == 0 {
			return held, true
		}
		return intersectStates(outs), false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						t.checkExpr(v, held)
					}
				}
			}
		}
		return held, false

	case *ast.IncDecStmt:
		t.checkExpr(s.X, held)
		return held, false

	default:
		return held, false
	}
}

// walkCaseBodies merges the lock state across switch case clauses: a
// lock survives only if every non-terminating clause (and the
// no-case-taken fallthrough, absent a default) still holds it.
func (t *lockTracker) walkCaseBodies(body *ast.BlockStmt, held lockState) (lockState, bool) {
	var outs []lockState
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			t.checkExpr(e, held)
		}
		out, term := t.walkStmts(cc.Body, held.clone())
		if !term {
			outs = append(outs, out)
		}
	}
	if !hasDefault {
		outs = append(outs, held)
	}
	if len(outs) == 0 {
		return held, true
	}
	return intersectStates(outs), false
}

// checkExpr reports blocking operations nested in an expression:
// channel receives and known blocking calls. Function literals are
// analyzed as fresh contexts.
func (t *lockTracker) checkExpr(expr ast.Expr, held lockState) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			t.walkStmts(x.Body.List, lockState{})
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && len(held) > 0 {
				t.pass.Reportf(x.OpPos, "blocking channel receive while holding %s", held.heldNames())
			}
		case *ast.CallExpr:
			if len(held) > 0 {
				switch fullName(calleeFunc(t.pass.TypesInfo, x)) {
				case "(*sync.WaitGroup).Wait":
					t.pass.Reportf(x.Pos(), "sync.WaitGroup.Wait while holding %s", held.heldNames())
				case "(*sync.Cond).Wait":
					t.pass.Reportf(x.Pos(), "sync.Cond.Wait while holding %s", held.heldNames())
				case "time.Sleep":
					t.pass.Reportf(x.Pos(), "time.Sleep while holding %s", held.heldNames())
				}
			}
		}
		return true
	})
}

type lockOp uint8

const (
	opLock lockOp = iota
	opRLock
	opUnlock
	opRUnlock
)

// lockOpOf classifies call as a sync.Mutex/RWMutex lock or unlock and
// returns the lock's identity — the receiver expression rendered as
// source. TryLock variants are deliberately not classified: their
// acquisition is conditional, and treating it as unconditional would
// manufacture phantom held state.
func lockOpOf(pass *Pass, call *ast.CallExpr) (key string, op lockOp, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	switch fullName(calleeFunc(pass.TypesInfo, call)) {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		op = opLock
	case "(*sync.RWMutex).RLock":
		op = opRLock
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		op = opUnlock
	case "(*sync.RWMutex).RUnlock":
		op = opRUnlock
	default:
		return "", 0, false
	}
	return exprString(sel.X), op, true
}

// applyLockOp mutates held for a statement-level lock operation and
// reports re-acquisition of a held lock. Returns false if call is not
// a lock operation.
func (t *lockTracker) applyLockOp(call *ast.CallExpr, held lockState) bool {
	key, op, ok := lockOpOf(t.pass, call)
	if !ok {
		return false
	}
	switch op {
	case opLock, opRLock:
		if prev, already := held[key]; already {
			verb := "write"
			if prev == lockRead {
				verb = "read"
			}
			t.pass.Reportf(call.Pos(), "acquiring %s while already holding its %s lock (upgrade or recursive lock deadlocks)", key, verb)
		}
		if op == opLock {
			held[key] = lockWrite
		} else {
			held[key] = lockRead
		}
	case opUnlock, opRUnlock:
		delete(held, key)
	}
	return true
}

// isTerminalCall reports calls that never return: panic and the
// conventional fatal exits.
func isTerminalCall(pass *Pass, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	switch fullName(calleeFunc(pass.TypesInfo, call)) {
	case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln":
		return true
	}
	return false
}
