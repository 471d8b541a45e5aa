package analysis

import (
	"go/ast"
	"strings"
)

// ErrDiscard reports discarded error results from durability-critical
// calls: Append, Sync, Flush, Close, and the
// publish-shaped helpers (writeManifest*, writeShards*, publish*).
// These are the calls whose errors ARE the durability contract — an
// Append or Sync whose error vanishes turns "the data is on disk" into
// "the data is probably on disk", which is
// the exact bug class the PR 8 fsync-poisoning work exists to surface.
//
// Policy, from strictest to loosest:
//
//   - Sync/Flush/Append and the publish-shaped helpers:
//     the error must reach a variable or a caller. A bare call
//     statement, a deferred call, a go statement, and an explicit
//     `_ =` discard are all reported — if a durability error is truly
//     ignorable at a site, say why with //bqslint:ignore.
//   - Close: a bare `x.Close()` statement is reported — on a write
//     path the close is when buffered bytes hit the kernel, so its
//     error is a durability error. `defer x.Close()` and `_ =
//     x.Close()` are accepted as the idiomatic cleanup forms for read
//     handles and close-on-error paths: the blank assignment is the
//     visible, greppable marker distinguishing "decided to drop" from
//     "forgot to check".
var ErrDiscard = &Analyzer{
	Name: "errdiscard",
	Doc:  "error results of durability-critical calls (Append/Sync/Flush/Close/publish) must be consumed",
	Run:  runErrDiscard,
}

// criticalNames are matched against the called function or method
// name.
var criticalNames = map[string]bool{
	"Append": true, "Sync": true, "Flush": true, "Close": true,
}

// publishShaped reports helper names that implement an atomic-publish
// step.
func publishShaped(name string) bool {
	return strings.HasPrefix(name, "publish") ||
		strings.HasPrefix(name, "writeManifest") ||
		strings.HasPrefix(name, "writeShards")
}

// criticalCall classifies call; ok only when the callee matches the
// critical set and its final result is an error that the caller could
// have consumed.
func criticalCall(pass *Pass, call *ast.CallExpr) (name string, ok bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	n := fn.Name()
	if !criticalNames[n] && !publishShaped(n) {
		return "", false
	}
	if !lastResultIsError(fn) {
		return "", false
	}
	return n, true
}

func runErrDiscard(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, isCall := s.X.(*ast.CallExpr); isCall {
					if name, ok := criticalCall(pass, call); ok {
						pass.Reportf(call.Pos(), "error result of %s is dropped; handle it, or discard explicitly with `_ =` (Close) or //bqslint:ignore", name)
					}
				}
			case *ast.DeferStmt:
				if name, ok := criticalCall(pass, s.Call); ok && name != "Close" {
					pass.Reportf(s.Call.Pos(), "deferred %s discards its error; durability errors must reach a caller", name)
				}
			case *ast.GoStmt:
				if name, ok := criticalCall(pass, s.Call); ok {
					pass.Reportf(s.Call.Pos(), "go %s discards its error; durability errors must reach a caller", name)
				}
			case *ast.AssignStmt:
				if len(s.Rhs) != 1 {
					return true
				}
				call, isCall := s.Rhs[0].(*ast.CallExpr)
				if !isCall {
					return true
				}
				name, ok := criticalCall(pass, call)
				if !ok || name == "Close" {
					return true
				}
				// The call's error is the last value on the left.
				if last, isIdent := s.Lhs[len(s.Lhs)-1].(*ast.Ident); isIdent && last.Name == "_" {
					pass.Reportf(call.Pos(), "error result of %s is blanked; a durability error must be handled, not discarded", name)
				}
			}
			return true
		})
	}
	return nil
}
