package analysis

import (
	"go/ast"
	"go/token"
)

// RenameSync enforces the atomic-publish protocol inside the
// segment-log tree: a function that renames a file into place must
// also fsync the directory afterwards (a call to syncDir, in source
// order after the rename) before it returns.
//
// This is the PR 4 publish protocol — write temp, fsync file, rename,
// fsync directory — that makes MANIFEST/SHARDS replacement and
// compaction generation switches atomic across power loss. A rename
// without the trailing directory fsync survives every test on an
// ordered filesystem and loses the file on a reordering one; the
// ALICE crash-consistency study found exactly this bug in most
// software it examined. The pairing is required within one function
// because that is the repo's publish idiom (publishFile, the tree's one
// rename, under MANIFEST and SHARDS alike); a helper that legitimately
// splits the protocol must carry a //bqslint:ignore with its reasoning.
var RenameSync = &Analyzer{
	Name: "renamesync",
	Doc:  "a Rename publishing a file must be followed by a directory fsync (syncDir) in the same function",
	Run:  runRenameSync,
}

// dirSyncNames are the directory-fsync helpers that complete the
// publish protocol.
var dirSyncNames = map[string]bool{
	"syncDir": true, "SyncDir": true, "fsyncDir": true,
}

func runRenameSync(pass *Pass) error {
	if !inSegmentlogSeam(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRenamePairing(pass, fd.Body)
		}
	}
	return nil
}

// checkRenamePairing scans one function body in source order and
// reports every Rename call with no later directory-fsync call.
// Function literals are separate protocol scopes and are checked
// independently.
func checkRenamePairing(pass *Pass, body *ast.BlockStmt) {
	var renames []token.Pos
	var lastSync token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			checkRenamePairing(pass, x.Body)
			return false
		case *ast.CallExpr:
			fn := calleeFunc(pass.TypesInfo, x)
			if fn == nil {
				return true
			}
			switch {
			case fn.Name() == "Rename" && len(x.Args) == 2:
				renames = append(renames, x.Pos())
			case dirSyncNames[fn.Name()]:
				if x.Pos() > lastSync {
					lastSync = x.Pos()
				}
			}
		}
		return true
	})
	for _, pos := range renames {
		if pos > lastSync {
			pass.Reportf(pos, "Rename is not followed by a directory fsync (syncDir) in this function; the publish protocol is write+fsync, rename, dir fsync")
		}
	}
}
