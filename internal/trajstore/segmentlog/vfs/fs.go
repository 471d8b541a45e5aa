// Package vfs abstracts the filesystem operations the segment log
// performs, so the entire durable stack — appends, rotation, manifest
// publish, compaction, sharded migration — can run
// against an injected failing filesystem in tests while production code
// pays nothing for the seam.
//
// Two implementations ship:
//
//   - OS, a zero-overhead passthrough to the os package. *os.File
//     satisfies File directly, so the passthrough adds one interface
//     dispatch per call and no allocation.
//   - FaultFS (fault.go), an in-memory filesystem and deterministic
//     seeded fault injector: it fails the Nth operation or every
//     operation matching a pattern with ENOSPC/EIO/short-write/
//     fsync-error, and simulates power loss with fsyncgate semantics:
//     bytes not covered by a successful Sync are gone after a crash,
//     and a failed Sync drops the dirty bytes immediately — retrying it
//     as if the data survived is the bug the model exists to expose.
//     Restart hands a test the durable state to reopen.
//
// The interface is intentionally the subset the log uses, not a general
// filesystem: os-package signatures, fs.DirEntry and fs.FileInfo
// results, so call sites translate one-for-one.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// File is one open file (or directory handle, for directory fsync).
// *os.File satisfies it.
type File interface {
	io.Writer
	io.WriterAt
	io.ReaderAt
	io.Seeker
	io.Closer
	// Sync flushes the file (or directory entry metadata) to stable
	// storage. A failed Sync leaves the durability of every byte
	// written since the last successful Sync unknown — callers must
	// not retry it and assume the data survived.
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
	// Fd returns the underlying descriptor, which Flock locks.
	// Implementations that have no real descriptor may return
	// ^uintptr(0).
	Fd() uintptr
}

// FS is the filesystem seam. Methods mirror the os package (plus
// filepath.Glob).
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	MkdirAll(path string, perm os.FileMode) error
	Truncate(name string, size int64) error
	Glob(pattern string) ([]string, error)
}

// OS is the production filesystem: a direct passthrough to the os
// package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) Glob(pattern string) ([]string, error)        { return filepath.Glob(pattern) }

// Flock applies or removes an advisory lock on f as flock(2) does, how
// being syscall.LOCK_EX|syscall.LOCK_NB or syscall.LOCK_UN: a FaultFS
// handle locks in its filesystem's own table, any other flocks its Fd.
func Flock(f File, how int) error {
	if ff, ok := f.(*faultFile); ok {
		return ff.flock(how)
	}
	return syscall.Flock(int(f.Fd()), how)
}
