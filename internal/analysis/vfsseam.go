package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// VFSSeam reports direct filesystem calls inside the durable
// segment-log tree (internal/trajstore/segmentlog and subpackages):
// os package filesystem functions, filepath.Glob, and any method call
// on an *os.File.
//
// Every filesystem operation the log performs must route through the
// vfs.FS seam — that is what lets the in-memory FaultFS's
// crash-at-every-op and fsync-poison matrices cover it. A raw os call
// compiles, passes every test on the disk, and silently exempts itself
// from the entire fault-injection story; this analyzer turns that silent
// coverage hole into a build failure. The vfs package itself (whose OS
// passthrough is the seam's one use of the os package) and _test.go
// files (which stage fixtures and corrupt files on purpose) are exempt.
var VFSSeam = &Analyzer{
	Name: "vfsseam",
	Doc:  "segmentlog filesystem traffic must route through vfs.FS so fault injection covers it",
	Run:  runVFSSeam,
}

// osFSFuncs are the os-package entry points that touch the
// filesystem. Process/env helpers (os.Getpid, os.Getenv, ...) and
// plain constants (os.O_CREATE) are not seam traffic.
var osFSFuncs = map[string]bool{
	"Chmod": true, "Chtimes": true, "Create": true, "CreateTemp": true,
	"Link": true, "Lstat": true, "Mkdir": true, "MkdirAll": true,
	"MkdirTemp": true, "Open": true, "OpenFile": true, "ReadDir": true,
	"ReadFile": true, "Remove": true, "RemoveAll": true, "Rename": true,
	"Stat": true, "Symlink": true, "Truncate": true, "WriteFile": true,
}

func runVFSSeam(pass *Pass) error {
	if !inSegmentlogSeam(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			full := fn.FullName()
			switch {
			case fn.Pkg() != nil && fn.Pkg().Path() == "os" && osFSFuncs[fn.Name()]:
				pass.Reportf(call.Pos(), "direct os.%s bypasses the vfs.FS seam (FaultFS fault matrices cannot cover it); use the log's fs", fn.Name())
			case full == "path/filepath.Glob":
				pass.Reportf(call.Pos(), "direct filepath.Glob bypasses the vfs.FS seam; use fs.Glob")
			case strings.HasPrefix(full, "(*os.File)."):
				if recvIsOSFile(pass.TypesInfo, call) {
					pass.Reportf(call.Pos(), "direct %s call bypasses the vfs.FS seam; hold a vfs.File instead", full)
				}
			}
			return true
		})
	}
	return nil
}

// recvIsOSFile reports whether the call's receiver expression is
// statically an *os.File (as opposed to a vfs.File interface that
// happens to be satisfied by one — those calls are already routed
// through the seam).
func recvIsOSFile(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}
